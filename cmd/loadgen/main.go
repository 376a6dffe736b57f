// Command loadgen is the open-loop load generator for `blazes serve`: it
// drives many concurrent analysis sessions through the service's
// create → mutate → analyze loop at a fixed arrival rate and reports, as
// JSON, every reply by endpoint and status code (sheds included) and a
// latency section per endpoint. That section is `/v1/stats`' own: the same
// histogram, quantile rule and fields, over the same sample — the 2xx
// replies, queue wait included — timed from the client's side of the
// socket. It exists for the two things a closed loop cannot show —
// overload and a kill -9 under load; how fast the service is, is
// `go run ./benchmark`'s to say.
//
// Open loop means arrivals are scheduled by the clock, not by completions:
// each session starts at its arrival time whether or not earlier sessions
// finished, so a slow server accumulates queueing (and shed 429s) exactly
// like production traffic would — a closed loop would instead slow the
// offered load down to whatever the server can absorb and hide the
// overload entirely.
//
// Targets, most specific wins:
//
//	-addr URL   an already-running server (nothing is spawned)
//	-bin PATH   spawn `PATH serve` as a child process (required by -chaos)
//	(neither)   an in-process server behind a real TCP socket
//
// Chaos mode (-chaos, needs -bin and -journal) is the durability
// acceptance test: it SIGKILLs the server mid-burst, restarts it on the
// same journal, and fails unless every acknowledged mutation survived and
// recovered sessions analyze byte-identically to a fresh replay of the
// same acknowledged ops.
//
// Exit codes: 0 success, 1 failure (lost acknowledged ops, differential
// mismatch, or unexpected errors), 2 usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"blazes"
	"blazes/service"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

// opPool are the mutations sessions draw from — every op is valid against
// the wordcount spec in any order, so an acknowledged sequence always
// replays cleanly (which is exactly what the chaos differential asserts).
var opPool = []service.MutateOp{
	{Op: "seal", Stream: "tweets", Key: []string{"batch"}},
	{Op: "annotate", Component: "Count", From: "words", To: "counts", Label: "OW", Subscript: []string{"word", "batch"}},
	{Op: "seal", Stream: "tweets"},
	{Op: "annotate", Component: "Splitter", From: "tweets", To: "words", Label: "OR", Subscript: []string{"id"}},
	{Op: "annotate", Component: "Commit", From: "counts", To: "db", Label: "CW"},
	{Op: "seal", Stream: "tweets", Key: []string{"batch"}},
}

type config struct {
	sessions  int
	rate      float64
	mutations int
	seed      int64

	addr    string
	bin     string
	journal string
	chaos   bool

	out     string
	timeout time.Duration
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.IntVar(&cfg.sessions, "sessions", 1000, "concurrent sessions to drive")
	fs.Float64Var(&cfg.rate, "rate", 500, "session arrivals per second (open loop)")
	fs.IntVar(&cfg.mutations, "mutations", 4, "mutate requests per session")
	fs.Int64Var(&cfg.seed, "seed", 7, "workload randomization seed")
	fs.StringVar(&cfg.addr, "addr", "", "base URL of a running server (default: in-process)")
	fs.StringVar(&cfg.bin, "bin", "", "blazes binary to spawn as the server")
	fs.StringVar(&cfg.journal, "journal", "", "journal directory for the spawned/in-process server")
	fs.BoolVar(&cfg.chaos, "chaos", false, "SIGKILL the spawned server mid-burst and verify recovery (needs -bin and -journal)")
	fs.StringVar(&cfg.out, "out", "", "write the JSON report here (default stdout)")
	fs.DurationVar(&cfg.timeout, "timeout", 30*time.Second, "per-request client timeout")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: loadgen [-sessions n] [-rate r/s] [-chaos -bin blazes -journal dir] [-out file]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "loadgen: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		return exitUsage
	}
	if cfg.sessions <= 0 || cfg.rate <= 0 || cfg.mutations < 0 {
		fmt.Fprintf(stderr, "loadgen: -sessions and -rate must be positive, -mutations non-negative\n")
		return exitUsage
	}
	if cfg.chaos {
		if cfg.bin == "" || cfg.journal == "" {
			fmt.Fprintf(stderr, "loadgen: -chaos needs -bin (server to spawn and kill) and -journal (its durable state)\n")
			return exitUsage
		}
		return runChaos(ctx, cfg, stdout, stderr)
	}
	return runLoad(ctx, cfg, stdout, stderr)
}

// runLoad drives a full burst against one healthy server.
func runLoad(ctx context.Context, cfg config, stdout, stderr io.Writer) int {
	base, shutdown, err := startTarget(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return exitError
	}
	defer shutdown()

	rec := newRecorder()
	states := burst(ctx, cfg, base, rec, nil)
	done := 0
	for _, st := range states {
		if st.created {
			done++
		}
	}
	fmt.Fprintf(stderr, "loadgen: %d/%d sessions created, %d requests, %d errors, %d shed\n",
		done, cfg.sessions, rec.requests(), rec.errorCount(), rec.shedCount())

	report := rec.report(cfg)
	if err := writeReport(cfg.out, report, stdout); err != nil {
		fmt.Fprintf(stderr, "loadgen: %v\n", err)
		return exitError
	}
	if done == 0 {
		fmt.Fprintf(stderr, "loadgen: no session survived the burst — the target is down or rejecting everything\n")
		return exitError
	}
	return exitOK
}

// startTarget resolves the server under test: an external -addr, a spawned
// -bin child, or an in-process server on a real socket.
func startTarget(ctx context.Context, cfg config, stderr io.Writer) (base string, shutdown func(), err error) {
	switch {
	case cfg.addr != "":
		return strings.TrimSuffix(cfg.addr, "/"), func() {}, nil
	case cfg.bin != "":
		proc, err := spawnServer(ctx, cfg, stderr)
		if err != nil {
			return "", nil, err
		}
		return proc.base, func() { proc.stop() }, nil
	default:
		svc, err := service.Open(service.Options{
			MaxSessions: cfg.sessions + 8,
			JournalDir:  cfg.journal,
		})
		if err != nil {
			return "", nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", nil, err
		}
		srv := &http.Server{Handler: svc.Handler()}
		go func() { _ = srv.Serve(ln) }()
		return "http://" + ln.Addr().String(), func() {
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutdownCtx)
			_ = svc.Close()
		}, nil
	}
}

// sessionState is one session's acknowledged history — the ground truth
// the chaos verifier holds the recovered server to.
type sessionState struct {
	index   int
	id      string
	created bool
	acked   []service.MutateOp
	// inflight is the one mutate op sent but not yet acknowledged when the
	// burst ended (sessions mutate sequentially, so there is at most one):
	// after a crash the recovered version may legitimately include it.
	inflight *service.MutateOp
}

// burst drives cfg.sessions open-loop sessions against base. Arrival times
// are fixed up front at 1/rate spacing; each session runs
// create → mutations × mutate → analyze. killAt, when non-nil, is closed
// to abort outstanding work (chaos mode kills the server under it).
func burst(ctx context.Context, cfg config, base string, rec *recorder, killAt <-chan struct{}) []*sessionState {
	client := &http.Client{
		Timeout: cfg.timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.sessions,
			MaxIdleConnsPerHost: cfg.sessions,
		},
	}
	interval := time.Duration(float64(time.Second) / cfg.rate)
	states := make([]*sessionState, cfg.sessions)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.sessions; i++ {
		states[i] = &sessionState{index: i}
		wg.Add(1)
		go func(st *sessionState, arrival time.Duration) {
			defer wg.Done()
			select {
			case <-time.After(time.Until(start.Add(arrival))):
			case <-ctx.Done():
				return
			case <-killAt:
				return
			}
			driveSession(ctx, cfg, client, base, st, rec)
		}(states[i], time.Duration(i)*interval)
	}
	wg.Wait()
	rec.wall = time.Since(start)
	return states
}

// driveSession runs one session's lifecycle, recording per-endpoint
// latencies and tracking exactly which mutations were acknowledged.
func driveSession(ctx context.Context, cfg config, client *http.Client, base string, st *sessionState, rec *recorder) {
	rng := rand.New(rand.NewSource(cfg.seed + int64(st.index)))
	var info service.SessionInfo
	code, err := doJSON(ctx, client, base+"/v1/sessions",
		service.CreateRequest{Name: fmt.Sprintf("load-%d", st.index), Spec: blazes.WordcountSpec()},
		&info, rec, "create")
	if err != nil || code != http.StatusCreated {
		return
	}
	st.id = info.Session
	st.created = true
	rec.wrote()

	for k := 0; k < cfg.mutations; k++ {
		op := opPool[rng.Intn(len(opPool))]
		st.inflight = &op
		var mr service.MutateResponse
		code, err = doJSON(ctx, client, base+"/v1/sessions/"+st.id+"/mutate",
			service.MutateRequest{Ops: []service.MutateOp{op}}, &mr, rec, "mutate")
		if err != nil {
			return // unacknowledged: st.inflight stays set for the verifier
		}
		st.inflight = nil
		if code == http.StatusOK {
			st.acked = append(st.acked, op)
			rec.wrote()
		}
		// 429/503 sheds are counted by the recorder and simply dropped:
		// an open-loop client does not retry into an overloaded server.
	}

	var rep json.RawMessage
	_, _ = doJSON(ctx, client, base+"/v1/sessions/"+st.id+"/analyze", nil, &rep, rec, "analyze")
}

// doJSON posts body (nil = empty POST) and decodes the response into out.
// It returns a non-nil error only for transport failures — HTTP error
// statuses are recorded and returned as codes.
func doJSON(ctx context.Context, client *http.Client, url string, body, out any, rec *recorder, endpoint string) (int, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, err
		}
		rd = strings.NewReader(string(data))
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	begin := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		rec.transportError(endpoint)
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		rec.transportError(endpoint)
		return 0, err
	}
	rec.observe(endpoint, resp.StatusCode, time.Since(begin))
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func writeReport(path string, report any, stdout io.Writer) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "" || path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
