package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"blazes"
	"blazes/internal/journal"
)

// TestHistorySnapshotRecovers boots from a snapshot written in the format
// that stored each session's whole op history and no version
// (testdata/history_snapshot): an evicted session, a wordcount session whose
// history partly cancels out, an adreport session opened under a variant, a
// seal and a strategy list, and an untouched one. Every session comes back
// at the version and with the analyses recorded when the snapshot was
// written, in the same recency order, beside the same tombstone.
func TestHistorySnapshotRecovers(t *testing.T) {
	dir := t.TempDir()
	files, err := filepath.Glob(filepath.Join("testdata", "history_snapshot", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files (%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv := newDurable(t, dir, Options{MaxSessions: 3})
	defer srv.Close()
	h := srv.Handler()
	code, body := call(t, h, "GET", "/v1/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	checkGolden(t, "history_snapshot_list.json", body)
	for _, id := range []string{"s2", "s3", "s4"} {
		code, body := call(t, h, "GET", "/v1/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("get %s: %d %s", id, code, body)
		}
		checkGolden(t, "history_snapshot_get_"+id+".json", body)
		for _, synth := range []bool{false, true} {
			code, body := call(t, h, "POST", "/v1/sessions/"+id+"/analyze", AnalyzeRequest{Synthesize: synth})
			if code != http.StatusOK {
				t.Fatalf("analyze %s: %d %s", id, code, body)
			}
			name := "history_snapshot_analyze_" + id + ".json"
			if synth {
				name = "history_snapshot_synthesize_" + id + ".json"
			}
			checkGolden(t, name, body)
		}
	}
}

// forceSnapshot makes srv write a snapshot now, as a write does once
// snapEvery records have passed since the last one.
func forceSnapshot(t *testing.T, srv *Server) {
	t.Helper()
	every := srv.snapEvery
	srv.snapEvery = 1
	srv.maybeSnapshot()
	srv.snapEvery = every
	if st := srv.jrn.Stats(); st.SnapshotSeq != st.LastSeq {
		t.Fatalf("no snapshot covers the last record: %+v", st)
	}
}

// TestNoServerKeepsOpHistory: a session's history is kept by no server, and
// a durable server's snapshot holds the session's state. Seal/unseal
// toggles, two to a request, come back to the opened graph at every record,
// so what a snapshot would write holds no op and the session's version
// after every one of them, through the snapshots a short snapEvery takes.
// After 50 toggles and after 500 the snapshot on disk holds no op, and the
// two payloads differ only by the version's digits. A restart reads the
// version back.
func TestNoServerKeepsOpHistory(t *testing.T) {
	toggle := MutateRequest{Ops: []MutateOp{{Op: "seal", Stream: "tweets", Key: []string{"batch"}}, {Op: "seal", Stream: "tweets"}}}
	var sizes []int
	for _, n := range []int{50, 500} {
		dir := t.TempDir()
		srv := newDurable(t, dir, Options{})
		srv.snapEvery = 8
		h := srv.Handler()
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
		for i := 0; i < n; i += 2 {
			if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", toggle); code != http.StatusOK {
				t.Fatalf("mutate %d: %d %s", i, code, body)
			}
			srv.snapMu.Lock()
			doc, err := srv.snapshotLocked()
			srv.snapMu.Unlock()
			if err != nil || len(doc.Sessions) != 1 || len(doc.Sessions[0].Ops) != 0 || doc.Sessions[0].Version != uint64(i+2) {
				t.Fatalf("after %d toggles the snapshot would hold %+v (%v), want no op at version %d", i+2, doc.Sessions, err, i+2)
			}
		}
		if srv.jrn.Stats().Snapshots < uint64(n/2/8) {
			t.Fatalf("%d toggles took %d snapshots", n, srv.jrn.Stats().Snapshots)
		}
		forceSnapshot(t, srv)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}

		jrn, rec, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		jrn.Close()
		var doc snapshotDoc
		if err := json.Unmarshal(rec.Snapshot, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.Sessions) != 1 || len(doc.Sessions[0].Ops) != 0 || doc.Sessions[0].Version != uint64(n) {
			t.Fatalf("snapshot after %d toggles holds %+v, want no op at version %d", n, doc.Sessions, n)
		}
		sizes = append(sizes, len(rec.Snapshot)-len(strconv.Itoa(n)))

		re := newDurable(t, dir, Options{})
		if code, body := call(t, re.Handler(), "GET", "/v1/sessions/s1", nil); code != http.StatusOK || reply[SessionInfo](t, body).Version != uint64(n) {
			t.Errorf("after a restart s1 = %d %s, want version %d", code, body, n)
		}
		re.Close()
	}
	if sizes[0] != sizes[1] {
		t.Errorf("snapshot payloads: %d bytes after 50 toggles, %d after 500 (version digits taken out)", sizes[0], sizes[1])
	}
}

// graphText renders all of g an op reads or writes: components in name
// order, streams in declaration order.
func graphText(g *blazes.Graph) string {
	var b strings.Builder
	for _, c := range g.Components() {
		fmt.Fprintf(&b, "component %s rep=%v coordination=%v schema=%v paths=%+v\n", c.Name, c.Rep, c.Coordination, c.OutSchema, c.Paths)
	}
	for _, st := range g.Streams() {
		fmt.Fprintf(&b, "stream %+v\n", *st)
	}
	return b.String()
}

// sessionTemplates are the two kinds of session the snapshot tests open: the
// wordcount, and the ad report under a variant, so variant ops change paths.
func sessionTemplates(t *testing.T) []CreateRequest {
	read := func(name string) string {
		data, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	return []CreateRequest{
		{Name: "wordcount", Spec: read("wordcount.blazes")},
		{Name: "adreport", Spec: read("adreport.blazes"), Variants: map[string]string{"Report": "CAMPAIGN"}, Seals: map[string][]string{"clicks": {"campaign"}}},
	}
}

// anyOp draws an op of any of the six kinds over the names of both
// templates' specs and an added Audit component. Many draws fail in the
// state at hand; a failed op changes nothing, so it is part of the test.
func anyOp(rng *rand.Rand) MutateOp {
	paths := map[string][][2]string{
		"Splitter": {{"tweets", "words"}},
		"Count":    {{"words", "counts"}},
		"Commit":   {{"counts", "db"}},
		"Report":   {{"click", "response"}, {"request", "response"}},
		"Cache":    {{"request", "response"}, {"response", "response"}, {"request", "request"}},
		"Audit":    {{"in", "out"}},
	}
	comps := []string{"Splitter", "Count", "Commit", "Report", "Cache", "Audit"}
	streams := []string{"tweets", "words", "counts", "db", "clicks", "analyst-q", "q", "r", "gossip", "analyst-r", "tap", "audit"}
	labels := [][]string{{"CR"}, {"CW"}, {"OR", "id"}, {"OW", "word", "batch"}, {"OR*"}, {"OW", "campaign"}}
	keys := [][]string{nil, {"batch"}, {"campaign"}, {"id"}, {"word", "batch"}}
	pick := func(s []string) string { return s[rng.Intn(len(s))] }
	end := func(out bool) string {
		if rng.Intn(4) == 0 {
			return ""
		}
		c := pick(comps)
		p := paths[c][rng.Intn(len(paths[c]))]
		if out {
			return c + "." + p[1]
		}
		return c + "." + p[0]
	}
	switch rng.Intn(7) {
	case 0, 1:
		return MutateOp{Op: "seal", Stream: pick(streams), Key: keys[rng.Intn(len(keys))]}
	case 2:
		c := pick(comps)
		p := paths[c][rng.Intn(len(paths[c]))]
		l := labels[rng.Intn(len(labels))]
		return MutateOp{Op: "annotate", Component: c, From: p[0], To: p[1], Label: l[0], Subscript: l[1:]}
	case 3:
		return MutateOp{Op: "variant", Component: pick([]string{"Report", "Report", "Cache", "Count", "Audit"}), Variant: pick([]string{"", "POOR", "THRESH", "WINDOW", "CAMPAIGN"})}
	case 4:
		return MutateOp{Op: "connect", Stream: pick(streams), From: end(true), To: end(false)}
	case 5:
		return MutateOp{Op: "remove-edge", Stream: pick(streams)}
	default:
		l := labels[rng.Intn(len(labels))]
		return MutateOp{Op: "add-component", Name: pick([]string{"Audit", "Audit", "Count"}), Paths: []PathDef{{From: "in", To: "out", Label: l[0], Subscript: l[1:]}}}
	}
}

// TestNormalForm pins the op lists of a few histories: ops that cancel out
// leave none, a variant op comes in where annotate ops cannot reach the
// paths or would take more (on a tie the annotate ops win), and a stream
// that was removed and connected again keeps its place at the end.
func TestNormalForm(t *testing.T) {
	tmpl := sessionTemplates(t)
	wc, ad := tmpl[0], tmpl[1]
	seal := func(stream string, key ...string) MutateOp { return MutateOp{Op: "seal", Stream: stream, Key: key} }
	variant := func(v string) MutateOp { return MutateOp{Op: "variant", Component: "Report", Variant: v} }
	clickOR := MutateOp{Op: "annotate", Component: "Report", From: "click", To: "response", Label: "OR", Subscript: []string{"id"}}
	requestOR := MutateOp{Op: "annotate", Component: "Report", From: "request", To: "response", Label: "OR", Subscript: []string{"id"}}
	// A stream connected again is no longer replicated, so it does not
	// survive even where it stood.
	repDB := CreateRequest{Spec: strings.Replace(wc.Spec, "{ name: db, from: Commit.db }", "{ name: db, from: Commit.db, Rep: true }", 1)}
	if repDB.Spec == wc.Spec {
		t.Fatal("the wordcount spec no longer declares db as the test expects")
	}
	for _, tc := range []struct {
		name    string
		create  CreateRequest
		history []MutateOp
		want    []MutateOp
	}{
		{"toggles", wc, []MutateOp{seal("tweets", "batch"), seal("tweets"), seal("tweets", "batch"), seal("tweets")}, nil},
		{"seal", wc, []MutateOp{seal("tweets", "batch"), seal("tweets"), seal("tweets", "batch")}, []MutateOp{seal("tweets", "batch")}},
		{"opened seal undone", ad, []MutateOp{seal("clicks")}, []MutateOp{seal("clicks")}},
		{"variant puts the base back", ad, []MutateOp{clickOR, variant("CAMPAIGN")}, nil},
		{"variant and back", ad, []MutateOp{variant("POOR"), variant("CAMPAIGN")}, nil},
		{"variant", ad, []MutateOp{clickOR, variant("POOR"), seal("clicks")}, []MutateOp{requestOR, seal("clicks")}},
		{"annotate after a variant", ad, []MutateOp{variant("POOR"), clickOR}, []MutateOp{clickOR, requestOR}},
		{"a variant drops a path", ad, []MutateOp{variant("POOR"), {Op: "remove-edge", Stream: "q"}, variant("")},
			[]MutateOp{{Op: "remove-edge", Stream: "q"}, variant("")}},
		{"reconnected", wc, []MutateOp{{Op: "remove-edge", Stream: "words"}, {Op: "connect", Stream: "words", From: "Splitter.words", To: "Count.words"}},
			[]MutateOp{{Op: "remove-edge", Stream: "words"}, {Op: "connect", Stream: "words", From: "Splitter.words", To: "Count.words"}}},
		{"replicated stream reconnected", repDB, []MutateOp{{Op: "remove-edge", Stream: "db"}, {Op: "connect", Stream: "db", From: "Commit.db"}},
			[]MutateOp{{Op: "remove-edge", Stream: "db"}, {Op: "connect", Stream: "db", From: "Commit.db"}}},
		{"tap and back", wc, []MutateOp{{Op: "connect", Stream: "tap", From: "Count.counts"}, seal("tap", "word"), {Op: "remove-edge", Stream: "tap"}}, nil},
		{"added", wc, []MutateOp{
			{Op: "add-component", Name: "Audit", Paths: []PathDef{{From: "in", To: "out", Label: "CW"}}},
			{Op: "connect", Stream: "audit", From: "Commit.db", To: "Audit.in"},
			{Op: "annotate", Component: "Audit", From: "in", To: "out", Label: "OW", Subscript: []string{"word"}},
			seal("audit", "word")},
			[]MutateOp{
				{Op: "add-component", Name: "Audit", Paths: []PathDef{{From: "in", To: "out", Label: "OW", Subscript: []string{"word"}}}},
				{Op: "connect", Stream: "audit", From: "Commit.db", To: "Audit.in"},
				seal("audit", "word")}},
	} {
		sess, err := tc.create.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range tc.history {
			if err := op.Apply(sess); err != nil {
				t.Fatalf("%s: %+v: %v", tc.name, op, err)
			}
		}
		got, err := normalForm(tc.create, sess.Graph())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", tc.want); g != w {
			t.Errorf("%s: normal form\n got %s\nwant %s", tc.name, g, w)
		}
	}
}

// TestUnchangedSessionsSnapshotWithoutGraphWork: a session at version 0
// holds the graph its request opens, and one unchanged since the last
// snapshot holds the graph that snapshot listed, so a snapshot reads
// neither's graph: with four such sessions it allocates about what the
// document itself takes, not a spec parse and a graph per session.
func TestUnchangedSessionsSnapshotWithoutGraphWork(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	for i, create := range append(sessionTemplates(t), sessionTemplates(t)...) {
		if code, body := call(t, h, "POST", "/v1/sessions", create); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
		if i < 2 {
			continue // untouched
		}
		op := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
		if create.Name == "adreport" {
			op = MutateOp{Op: "variant", Component: "Report", Variant: "POOR"}
		}
		if code, body := call(t, h, "POST", fmt.Sprintf("/v1/sessions/s%d/mutate", i+1), MutateRequest{Ops: []MutateOp{op}}); code != http.StatusOK {
			t.Fatalf("mutate: %d %s", code, body)
		}
	}
	snapshot := func() snapshotDoc {
		srv.snapMu.Lock()
		defer srv.snapMu.Unlock()
		doc, err := srv.snapshotLocked()
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	if doc := snapshot(); len(doc.Sessions[0].Ops)+len(doc.Sessions[1].Ops) != 0 || len(doc.Sessions[2].Ops)+len(doc.Sessions[3].Ops) != 2 {
		t.Fatalf("snapshot sessions: %+v", doc.Sessions)
	}
	if allocs := testing.AllocsPerRun(10, func() { snapshot() }); allocs > 10 {
		t.Errorf("a snapshot of four unchanged sessions allocates %.0f times, want at most 10", allocs)
	}
}

// TestNormalFormRebuildsTheGraph: after every op of random histories over
// both templates, the normal form is no longer than the history, replays on
// a new session without an error to a graph equal to the live one, and is
// its own normal form.
func TestNormalFormRebuildsTheGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, create := range sessionTemplates(t) {
		for run := 0; run < 20; run++ {
			sess, err := create.NewSession()
			if err != nil {
				t.Fatal(err)
			}
			var history []MutateOp
			for step := 0; step < 60; step++ {
				op := anyOp(rng)
				if op.Apply(sess) != nil {
					continue
				}
				history = append(history, op)
				live := sess.Graph()
				ops, err := normalForm(create, live)
				if err != nil {
					t.Fatalf("%s run %d: after %+v: %v", create.Name, run, history, err)
				}
				if len(ops) > len(history) {
					t.Fatalf("%s run %d: %d ops for a history of %d: %+v", create.Name, run, len(ops), len(history), ops)
				}
				replay, err := create.NewSession()
				if err != nil {
					t.Fatal(err)
				}
				for _, op := range ops {
					if err := op.Apply(replay); err != nil {
						t.Fatalf("%s run %d: history %+v\nnormal form %+v\nreplaying %+v: %v", create.Name, run, history, ops, op, err)
					}
				}
				if got, want := graphText(replay.Graph()), graphText(live); got != want {
					t.Fatalf("%s run %d: history %+v\nnormal form %+v\nreplays to\n%s\nthe live graph is\n%s", create.Name, run, history, ops, got, want)
				}
				again, err := normalForm(create, replay.Graph())
				if err != nil || fmt.Sprintf("%+v", again) != fmt.Sprintf("%+v", ops) {
					t.Fatalf("%s run %d: the normal form %+v of the replay is %+v (%v)", create.Name, run, ops, again, err)
				}
			}
		}
	}
}

// twinStep sends one mutate batch to a server that restarts and to its twin,
// which never does, and fails unless both answer alike — status, applied,
// version, error text — and then hold sessions that read alike: version,
// components and streams in order, and the report with its Delta set aside
// (the restarted server's analysis history starts fresh).
func twinStep(t *testing.T, restarted, twin http.Handler, id string, ops []MutateOp) (applied int) {
	t.Helper()
	mutate := func(h http.Handler) (int, MutateResponse, ErrorResponse) {
		code, body := call(t, h, "POST", "/v1/sessions/"+id+"/mutate", MutateRequest{Ops: ops})
		var ok MutateResponse
		var er ErrorResponse
		if code == http.StatusOK {
			ok = reply[MutateResponse](t, body)
			ok.Durable = false
		} else {
			er = reply[ErrorResponse](t, body)
		}
		return code, ok, er
	}
	gc, gok, ger := mutate(restarted)
	wc, wok, wer := mutate(twin)
	if gc != wc || gok != wok || ger != wer {
		t.Fatalf("%s %+v: the restarted server answers %d %+v %+v, its twin %d %+v %+v", id, ops, gc, gok, ger, wc, wok, wer)
	}
	twinSessionsAgree(t, restarted, twin, id)
	return gok.Applied + ger.Applied
}

// twinSessionsAgree fails unless session id reads alike on both servers.
func twinSessionsAgree(t *testing.T, restarted, twin http.Handler, id string) {
	t.Helper()
	read := func(h http.Handler) (SessionInfo, string) {
		code, body := call(t, h, "GET", "/v1/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("get %s: %d %s", id, code, body)
		}
		info := reply[SessionInfo](t, body)
		info.Recovered = false
		code, body = call(t, h, "POST", "/v1/sessions/"+id+"/analyze", AnalyzeRequest{Synthesize: true})
		if code != http.StatusOK {
			return info, fmt.Sprintf("%d %s", code, body)
		}
		rep, err := blazes.DecodeReport([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		rep.Delta = nil
		out, err := rep.MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return info, string(out)
	}
	gi, gr := read(restarted)
	wi, wr := read(twin)
	if fmt.Sprintf("%+v", gi) != fmt.Sprintf("%+v", wi) || gr != wr {
		t.Fatalf("%s: the restarted server holds %+v, its twin %+v\n--- restarted ---\n%s\n--- twin ---\n%s", id, gi, wi, gr, wr)
	}
}

// TestRestartAndContinueDifferential crashes a durable server that takes a
// snapshot every 8 records, recovers it, and keeps writing to it and to a
// twin that never restarted, over wordcount and adreport sessions and ops of
// every kind; both must answer every step alike. The fixed cases are the two
// answers a spec printed from the graph would change: a variant op after a
// restart puts back the opened spec's base annotation, and a variant op on a
// component an add-component op declared fails as it did before.
func TestRestartAndContinueDifferential(t *testing.T) {
	tmpl := sessionTemplates(t)
	wc, ad := tmpl[0], tmpl[1]
	for _, tc := range []struct {
		name          string
		create        CreateRequest
		before, after []MutateOp
	}{
		{"variant restores the base annotation", ad,
			[]MutateOp{{Op: "annotate", Component: "Report", From: "click", To: "response", Label: "OR", Subscript: []string{"id"}}},
			[]MutateOp{{Op: "variant", Component: "Report", Variant: "CAMPAIGN"}}},
		{"no variant on an added component", wc,
			[]MutateOp{{Op: "add-component", Name: "Audit", Paths: []PathDef{{From: "in", To: "out", Label: "CW"}}}},
			[]MutateOp{{Op: "variant", Component: "Audit", Variant: ""}}},
	} {
		dir := t.TempDir()
		srv := newDurable(t, dir, Options{})
		twin := New(Options{})
		for _, h := range []http.Handler{srv.Handler(), twin.Handler()} {
			if code, body := call(t, h, "POST", "/v1/sessions", tc.create); code != http.StatusCreated {
				t.Fatalf("%s: create: %d %s", tc.name, code, body)
			}
		}
		twinStep(t, srv.Handler(), twin.Handler(), "s1", tc.before)
		forceSnapshot(t, srv)
		srv = nil // crash
		re := newDurable(t, dir, Options{})
		twinSessionsAgree(t, re.Handler(), twin.Handler(), "s1")
		twinStep(t, re.Handler(), twin.Handler(), "s1", tc.after)
		re.Close()
	}

	const sessions = 6
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{})
	twin := New(Options{})
	for i := 0; i < sessions; i++ {
		for _, h := range []http.Handler{srv.Handler(), twin.Handler()} {
			if code, body := call(t, h, "POST", "/v1/sessions", tmpl[i%2]); code != http.StatusCreated {
				t.Fatalf("create: %d %s", code, body)
			}
		}
	}
	for restart := 0; restart < 4; restart++ {
		srv.snapEvery = 8
		applied := 0
		for step := 0; step < 60; step++ {
			ops := []MutateOp{anyOp(rng)}
			if rng.Intn(4) == 0 {
				ops = append(ops, anyOp(rng))
			}
			applied += twinStep(t, srv.Handler(), twin.Handler(), fmt.Sprintf("s%d", 1+rng.Intn(sessions)), ops)
		}
		if st := srv.jrn.Stats(); st.Snapshots == 0 || applied < 15 {
			t.Fatalf("restart %d: %d snapshots and %d ops applied in 60 writes at snapEvery 8", restart, st.Snapshots, applied)
		}
		srv = newDurable(t, dir, Options{}) // crash and recover
		for i := 1; i <= sessions; i++ {
			twinSessionsAgree(t, srv.Handler(), twin.Handler(), fmt.Sprintf("s%d", i))
		}
	}
	srv.Close()
}

// TestSnapshotsUnderConcurrentRequests: snapshots taken every 4 records
// while six clients mutate, analyze, list and read their own sessions at
// once read each changed session's graph outside the server's lock; run
// with -race. The server recovered from them holds what the live one does.
func TestSnapshotsUnderConcurrentRequests(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{})
	srv.snapEvery = 4
	h := srv.Handler()
	tmpl := sessionTemplates(t)
	const clients = 6
	for i := 0; i < clients; i++ {
		if code, body := call(t, h, "POST", "/v1/sessions", tmpl[i%2]); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id string, rng *rand.Rand) {
			defer wg.Done()
			for step := 0; step < 30; step++ {
				requests := [][2]string{{"POST", "/v1/sessions/" + id + "/analyze"}, {"GET", "/v1/sessions"}, {"GET", "/v1/sessions/" + id}}
				for _, r := range requests {
					if code, body := call(t, h, r[0], r[1], nil); code != http.StatusOK {
						t.Errorf("%s %s: %d %s", r[0], r[1], code, body)
					}
				}
				if code, body := call(t, h, "POST", "/v1/sessions/"+id+"/mutate", MutateRequest{Ops: []MutateOp{anyOp(rng)}}); code != http.StatusOK && code != http.StatusBadRequest {
					t.Errorf("mutate %s: %d %s", id, code, body)
				}
			}
		}(fmt.Sprintf("s%d", i+1), rand.New(rand.NewSource(int64(i))))
	}
	wg.Wait()
	if srv.jrn.Stats().Snapshots == 0 {
		t.Fatal("no snapshot was taken")
	}
	re := newDurable(t, dir, Options{})
	defer re.Close()
	for i := 1; i <= clients; i++ {
		twinSessionsAgree(t, re.Handler(), h, fmt.Sprintf("s%d", i))
	}
	srv.Close()
}
