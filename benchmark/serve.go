package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"blazes"
	"blazes/internal/journal"
	"blazes/service"
	"blazes/topogen"
)

// serveRound is the number of session scripts in one round: one session of
// each template, in order. A run is a whole number of rounds, so every run
// has the same mix of cheap (paper spec) and dear (generated spec) sessions.
const serveRound = 8

// sessionScript is the request mix of one session, in order: 1 create, 8
// mutate, 4 analyze, 2 lint, 1 get, 1 delete.
var sessionScript = strings.Fields("create mutate mutate analyze mutate lint mutate analyze mutate get mutate analyze mutate lint mutate analyze delete")

// writeEndpoints are the journaled requests; the rest only read.
var writeEndpoints = map[string]bool{"create": true, "mutate": true, "delete": true}

// serveTemplate is one kind of session: the spec it is created from and a
// pool of mutations that are each valid on that spec in any order, so an
// acknowledged sequence always replays.
type serveTemplate struct {
	create service.CreateRequest
	ops    []service.MutateOp
}

func paperTemplates() []serveTemplate {
	return []serveTemplate{
		{
			create: service.CreateRequest{Name: "wordcount", Spec: mustReadTestdata("wordcount.blazes")},
			ops: []service.MutateOp{
				{Op: "seal", Stream: "tweets", Key: []string{"batch"}},
				{Op: "seal", Stream: "tweets"},
				{Op: "annotate", Component: "Count", From: "words", To: "counts", Label: "OW", Subscript: []string{"word", "batch"}},
				{Op: "annotate", Component: "Splitter", From: "tweets", To: "words", Label: "OR", Subscript: []string{"id"}},
				{Op: "annotate", Component: "Splitter", From: "tweets", To: "words", Label: "CR"},
				{Op: "annotate", Component: "Commit", From: "counts", To: "db", Label: "CW"},
			},
		},
		{
			create: service.CreateRequest{Name: "adreport", Spec: mustReadTestdata("adreport.blazes"), Variants: map[string]string{"Report": "CAMPAIGN"}},
			ops: []service.MutateOp{
				{Op: "seal", Stream: "clicks", Key: []string{"campaign"}},
				{Op: "seal", Stream: "clicks"},
				{Op: "variant", Component: "Report", Variant: "POOR"},
				{Op: "variant", Component: "Report", Variant: "THRESH"},
				{Op: "variant", Component: "Report", Variant: "CAMPAIGN"},
				{Op: "annotate", Component: "Cache", From: "request", To: "response", Label: "CR"},
			},
		},
	}
}

// generatedTemplate builds a session kind from a generated topology: seals on
// its source streams and annotation flips on its first components.
func generatedTemplate(components int, seed int64) (serveTemplate, error) {
	res, err := topogen.Generate(topogen.Default(components, seed))
	if err != nil {
		return serveTemplate{}, err
	}
	sp, err := blazes.ParseSpec(res.Spec)
	if err != nil {
		return serveTemplate{}, err
	}
	name := fmt.Sprintf("gen-%d-s%d", components, seed)
	g, err := sp.Graph(name)
	if err != nil {
		return serveTemplate{}, err
	}
	t := serveTemplate{create: service.CreateRequest{Name: name, Spec: res.Spec}}
	for _, st := range g.Streams() {
		if st.IsSource() && len(t.ops) < 4 {
			t.ops = append(t.ops,
				service.MutateOp{Op: "seal", Stream: st.Name, Key: []string{"key"}},
				service.MutateOp{Op: "seal", Stream: st.Name})
		}
	}
	for _, c := range g.Components()[:4] {
		p := c.Paths[0]
		t.ops = append(t.ops,
			service.MutateOp{Op: "annotate", Component: c.Name, From: p.From, To: p.To, Label: "CW"},
			service.MutateOp{Op: "annotate", Component: c.Name, From: p.From, To: p.To, Label: "OR*"})
	}
	return t, nil
}

// serveWorkload is the request pipeline as a deployment runs it: an
// in-process durable server (journal on disk, fsync on) behind a real
// loopback socket, driven by one closed-loop client that sends its next
// request only when the previous one was answered, as the callers of
// `blazes serve` (editors, CI jobs) do, and runs whole session scripts. Writes are the primary op class, reads the "read"
// class.
type serveWorkload struct {
	e         env
	templates []serveTemplate // serveRound of them, 3 paper : 1 generated; session j uses template j mod serveRound
	dir       string
	svc       *service.Server
	srv       *http.Server
	base      string
	nextID    int64
	closed    bool
}

// serveSpecSeed fixes the two generated specs: a generated session allocates
// many times what a paper-spec session does, and how much differs between
// generated graphs, so specs drawn per seed would measure the draw. The
// benchmark seed drives each session's choice of mutations instead.
const serveSpecSeed = 8

func (w *serveWorkload) setup(e env, rec *recorder) error {
	w.e = e
	paper := paperTemplates()
	for k := 0; k < 2; k++ {
		gen, err := generatedTemplate(e.scale.serveGraphN, serveSpecSeed+int64(k))
		if err != nil {
			return err
		}
		w.templates = append(w.templates, paper[0], paper[1], paper[k], gen)
	}
	var err error
	if w.dir, err = os.MkdirTemp(e.tmp, "journal-"); err != nil {
		return err
	}
	if w.svc, err = service.Open(service.Options{JournalDir: w.dir}); err != nil {
		return err
	}
	if err := w.svc.WaitRecovered(context.Background()); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = &http.Server{Handler: w.svc.Handler()}
	go func() { _ = w.srv.Serve(ln) }() // returns when close() shuts the server down
	w.base = "http://" + ln.Addr().String()

	warm := newResult()
	w.session(newServeClient(), nil, warm, nil, true)
	return warm.firstErr
}

func newServeClient() *http.Client {
	return &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
}

// request sends one request and requires a 2xx answer; out, when non-nil,
// receives the decoded body.
func (w *serveWorkload) request(c *http.Client, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, w.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

// keptSession is a session a script left open, with what the server
// acknowledged for it — the ground truth recovery is held to.
type keptSession struct {
	id      string
	tmpl    serveTemplate
	acked   []service.MutateOp
	version uint64
}

// session runs one session script on client c, counts every request in res
// and books every answered one, by endpoint, on m (nil: unmetered). With del
// false the closing delete is skipped and the session is returned, open, to
// the caller.
func (w *serveWorkload) session(c *http.Client, rec *recorder, res *result, m *meter, del bool) *keptSession {
	w.nextID++
	j := w.nextID
	rng := rand.New(rand.NewSource(w.e.seed<<20 + j))
	kept := &keptSession{tmpl: w.templates[int(j)%len(w.templates)]}
	root := rec.begin("serve.session", -1, int(j))
	defer rec.end(root)
	for _, endpoint := range sessionScript {
		if endpoint == "delete" && !del {
			continue
		}
		var err error
		start := time.Now()
		rec.span("service."+endpoint, root, int(j), func() {
			path := "/v1/sessions/" + kept.id
			switch endpoint {
			case "create":
				var info service.SessionInfo
				err = w.request(c, http.MethodPost, "/v1/sessions", kept.tmpl.create, &info)
				kept.id = info.Session
			case "mutate":
				op := kept.tmpl.ops[rng.Intn(len(kept.tmpl.ops))]
				var mr service.MutateResponse
				err = w.request(c, http.MethodPost, path+"/mutate", service.MutateRequest{Ops: []service.MutateOp{op}}, &mr)
				if err == nil && (mr.Applied != 1 || !mr.Durable) {
					err = fmt.Errorf("mutate acknowledged applied=%d durable=%v", mr.Applied, mr.Durable)
				}
				if err == nil {
					kept.acked, kept.version = append(kept.acked, op), mr.Version
				}
			case "analyze":
				var rep blazes.Report
				err = w.request(c, http.MethodPost, path+"/analyze", service.AnalyzeRequest{Synthesize: true}, &rep)
			case "lint":
				err = w.request(c, http.MethodGet, path+"/lint", nil, nil)
			case "get":
				err = w.request(c, http.MethodGet, path, nil, nil)
			case "delete":
				err = w.request(c, http.MethodDelete, path, nil, nil)
			}
		})
		d := time.Since(start)
		res.ops++
		if err != nil {
			res.fail(fmt.Errorf("session %d: %s: %w", j, endpoint, err))
			if endpoint == "create" {
				return nil // nothing to run the rest of the script against
			}
			continue
		}
		if m != nil {
			m.record(endpoint, start, d)
		}
	}
	return kept
}

func (w *serveWorkload) run(budget time.Duration, rec *recorder) *result {
	res := newResult()
	client := newServeClient()
	defer client.CloseIdleConnections()
	runtime.GC()
	alloc0 := totalAlloc()
	m, err := newMeter(res, serveMix, w.e.tmp)
	if err != nil {
		res.ops++
		res.fail(err)
		return res
	}
	m.sample()
	start := time.Now()
	// A request is too short, and waits too much, to interleave the host
	// sensors with it: they run between session scripts.
	for n := 0; n < serveRound || n%serveRound != 0 || time.Since(start) < budget; n++ {
		w.session(client, rec, res, m, true)
		m.sample()
	}
	res.wall, res.allocBytes = time.Since(start), totalAlloc()-alloc0
	if err := m.finish(); err != nil {
		res.fail(err)
	}
	for endpoint, v := range res.samples {
		if writeEndpoints[endpoint] {
			res.primary = append(res.primary, v...)
		} else {
			res.samples["read"] = append(res.samples["read"], v...)
		}
	}
	rec.observe("service.write_p50_ms", median(res.primary))
	rec.observe("service.read_p50_ms", median(res.samples["read"]))
	rec.observe("service.write_p99_ms", percentile(res.primary, 0.99))
	rec.observe("service.read_p99_ms", percentile(res.samples["read"], 0.99))
	return res
}

// handlerMutates creates a wordcount session on h and times n mutate
// requests served on a recorder — the handler's cost with no socket and no
// HTTP client in the way.
func handlerMutates(h http.Handler, n int, observe func(ms float64)) error {
	call := func(method, path string, body any) (*httptest.ResponseRecorder, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(data)))
		if rr.Code < 200 || rr.Code > 299 {
			return nil, fmt.Errorf("%s %s: status %d: %s", method, path, rr.Code, rr.Body.String())
		}
		return rr, nil
	}
	tmpl := paperTemplates()[0]
	rr, err := call(http.MethodPost, "/v1/sessions", tmpl.create)
	if err != nil {
		return err
	}
	var info service.SessionInfo
	if err := json.Unmarshal(rr.Body.Bytes(), &info); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := call(http.MethodPost, "/v1/sessions/"+info.Session+"/mutate", service.MutateRequest{Ops: tmpl.ops[i%len(tmpl.ops) : i%len(tmpl.ops)+1]}); err != nil {
			return err
		}
		observe(float64(time.Since(start)) / 1e6)
	}
	_, err = call(http.MethodDelete, "/v1/sessions/"+info.Session, nil)
	return err
}

// probe separates the layers under a write: the handler without the socket,
// the handler without the journal, and the journal without the handler.
func (w *serveWorkload) probe(rec *recorder) error {
	n := w.e.scale.probeN
	if err := handlerMutates(w.svc.Handler(), n, func(ms float64) { rec.observe("service.handler_mutate_p50_ms", ms) }); err != nil {
		return err
	}
	if err := handlerMutates(service.New(service.Options{}).Handler(), n, func(ms float64) { rec.observe("service.mutate_nojournal_p50_ms", ms) }); err != nil {
		return err
	}

	dir, err := os.MkdirTemp(w.e.tmp, "journal-probe-")
	if err != nil {
		return err
	}
	jrn, _, err := journal.Open(dir)
	if err != nil {
		return err
	}
	// The payload is a mutate record as the service journals it.
	payload, err := json.Marshal(map[string]any{"kind": "mutate", "session": "s1", "ops": paperTemplates()[0].ops[:1]})
	if err != nil {
		return err
	}
	var appends []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, err := jrn.Append(payload); err != nil {
			return err
		}
		appends = append(appends, float64(time.Since(start))/1e6)
	}
	rec.observe("journal.append_p50_ms", median(appends))
	rec.observe("journal.append_p99_ms", percentile(appends, 0.99))
	rec.span("journal.snapshot", -1, -1, func() { err = jrn.Snapshot(bytes.Repeat(payload, 32)) })
	if err != nil {
		return err
	}
	if err := jrn.Close(); err != nil {
		return err
	}
	rec.span("journal.open", -1, -1, func() { jrn, _, err = journal.Open(dir) })
	if err != nil {
		return err
	}
	return jrn.Close()
}

// verify requires that nothing was shed, then restarts the server on the
// journal the run left behind and holds the recovered state to what was
// acknowledged: sessions left open come back at their acknowledged version
// and analyze byte-for-byte like a fresh replay of their acknowledged ops;
// a deleted session stays deleted.
func (w *serveWorkload) verify(rec *recorder) error {
	var stats service.StatsResponse
	client := newServeClient()
	defer client.CloseIdleConnections()
	if err := w.request(client, http.MethodGet, "/v1/stats", nil, &stats); err != nil {
		return err
	}
	shed := stats.Admission.Shed + stats.Admission.QueueTimeouts + stats.Admission.ReadOnlyRejected
	rec.observe("service.shed", float64(shed))
	if shed != 0 || stats.JournalBroken {
		return fmt.Errorf("server shed %d requests (journal broken: %v)", shed, stats.JournalBroken)
	}
	if j := stats.Journal; j != nil && j.Fsyncs > 0 {
		rec.observe("journal.group_factor", float64(j.Appended)/float64(j.Fsyncs))
		rec.observe("journal.fsyncs_per_write", float64(j.Fsyncs)/float64(j.Appended))
		rec.observe("journal.bytes_per_write", float64(j.Bytes)/float64(j.LastSeq-j.SnapshotSeq))
		rec.observe("journal.snapshots", float64(j.Snapshots))
	}

	scratch := newResult()
	var kept []*keptSession
	for i := 0; i < 4; i++ {
		if k := w.session(client, nil, scratch, nil, false); k != nil {
			kept = append(kept, k)
		}
	}
	deleted := w.session(client, nil, scratch, nil, true)
	if scratch.failed > 0 || deleted == nil {
		return fmt.Errorf("verification sessions failed: %w", scratch.firstErr)
	}
	if err := w.close(); err != nil {
		return err
	}

	var svc *service.Server
	var err error
	rec.span("service.recover", -1, -1, func() {
		if svc, err = service.Open(service.Options{JournalDir: w.dir}); err == nil {
			err = svc.WaitRecovered(context.Background())
		}
	})
	if err != nil {
		return fmt.Errorf("reopening the journal: %w", err)
	}
	defer svc.Close()
	h := svc.Handler()
	get := func(method, path string) *httptest.ResponseRecorder {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		return rr
	}
	if rr := get(http.MethodGet, "/v1/sessions/"+deleted.id); rr.Code != http.StatusNotFound && rr.Code != http.StatusGone {
		return fmt.Errorf("deleted session %s came back after recovery (status %d)", deleted.id, rr.Code)
	}
	if n := svc.SessionCount(); n != len(kept) {
		return fmt.Errorf("recovered %d sessions, %d were left open", n, len(kept))
	}
	for _, k := range kept {
		var info service.SessionInfo
		rr := get(http.MethodGet, "/v1/sessions/"+k.id)
		if rr.Code != http.StatusOK || json.Unmarshal(rr.Body.Bytes(), &info) != nil || info.Version != k.version {
			return fmt.Errorf("session %s: recovered at version %d (status %d), acknowledged %d", k.id, info.Version, rr.Code, k.version)
		}
		rr = get(http.MethodPost, "/v1/sessions/"+k.id+"/analyze")
		if rr.Code != http.StatusOK {
			return fmt.Errorf("session %s: analyze after recovery: status %d", k.id, rr.Code)
		}
		got, err := blazes.DecodeReport(rr.Body.Bytes())
		if err != nil {
			return err
		}
		replay, err := k.tmpl.create.NewSession()
		if err != nil {
			return err
		}
		for _, op := range k.acked {
			if err := op.Apply(replay); err != nil {
				return err
			}
		}
		want, err := replay.Analyze(context.Background())
		if err != nil {
			return err
		}
		gotBytes, _ := got.MarshalIndent()
		wantBytes, _ := want.MarshalIndent()
		if !bytes.Equal(gotBytes, wantBytes) {
			return fmt.Errorf("session %s: recovered session analyzes differently from a replay of its %d acknowledged ops", k.id, len(k.acked))
		}
	}
	return nil
}

// close stops the listener and closes the journal; verify calls it before
// reopening the journal, so it must be safe to call twice.
func (w *serveWorkload) close() error {
	if w.closed || w.srv == nil {
		return nil
	}
	w.closed = true
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	return w.svc.Close()
}
