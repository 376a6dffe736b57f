// The verify subcommand: schedule-exploration verification of the Blazes
// guarantee over the built-in workloads — locally, or distributed across
// sweep-worker processes via a coordinator.
//
// Usage:
//
//	blazes verify [-workload name]... [-seeds n] [-strategy a,b] [-json]
//	blazes verify -shrink dir [...]          also write 1-minimal traces
//	blazes verify -coordinator URL [...]     distribute via blazes serve
//	blazes verify -replay trace.json         re-execute a shrunk trace
//	blazes verify -reshrink dir              re-minimize a trace corpus in place
//
// Flags:
//
//	-workload name    verify one named workload (repeatable; default all).
//	                  Names: wordcount-storm, bloom-report-THRESH,
//	                  bloom-report-POOR, bloom-report-CAMPAIGN,
//	                  adtrack-network, synthetic-set,
//	                  synthetic-chains-gated, synthetic-chains, plus
//	                  generated topologies as generated-<n>c-s<seed>
//	-seeds n          schedules explored per (mechanism, fault plan)
//	                  configuration (default 64)
//	-strategy a,b     try these coordination strategies, in order, during
//	                  synthesis (the blazes/strategy catalog: sealing,
//	                  ordering, sequencing, quorum-ordering,
//	                  partition-sealing; "sealing,sequencing" prefers M1
//	                  over M2 where ordering is needed); unknown names are
//	                  usage errors
//	-json             emit the reports as a JSON array
//	-shrink dir       delta-debug every anomalous cell to a 1-minimal
//	                  replayable trace artifact written into dir
//	-coordinator URL  submit the sweep to a `blazes serve` coordinator and
//	                  poll until worker processes finish it; the merged
//	                  report is byte-identical to a local run
//	-replay file      re-execute a trace artifact and check it reproduces
//	                  its recorded anomaly classification
//	-reshrink dir     re-run delta debugging over every blazes.trace/v1
//	                  artifact in dir (no sweep) and rewrite the files in
//	                  place; stale traces — recorded anomalies that no
//	                  longer reproduce — are reported and left untouched
//
// Schedules run on one worker per GOMAXPROCS; reports are byte-identical at
// any GOMAXPROCS, and GOMAXPROCS=1 is the sequential sweep.
//
// Exit codes follow the command's contract: 0 when every verified workload
// upholds the guarantee (or the replayed trace reproduces, or every trace
// reshrinks), 1 on a violation, a non-reproducing or stale trace, or an
// error, 2 on usage errors.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blazes/service"
	"blazes/strategy"
	"blazes/verify"
)

func runVerify(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazes verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seeds       = fs.Int("seeds", verify.DefaultSeeds, "schedules per (mechanism, plan) configuration")
		strategyArg = fs.String("strategy", "", "comma-separated coordination strategies to try first during synthesis")
		jsonOut     = fs.Bool("json", false, "emit reports as a JSON array")
		shrinkDir   = fs.String("shrink", "", "write 1-minimal replayable traces for anomalous cells into this directory")
		coordinator = fs.String("coordinator", "", "distribute the sweep via this coordinator URL (blazes serve)")
		batch       = fs.Int("batch", 0, "seeds per claimable batch in coordinator mode (0 = coordinator default)")
		replayPath  = fs.String("replay", "", "replay a shrunk trace artifact (exclusive with the sweep flags)")
		reshrinkDir = fs.String("reshrink", "", "re-minimize every trace artifact in this directory in place (no sweep)")
		workloads   multiFlag
	)
	fs.Var(&workloads, "workload", "workload name (repeatable; default: the full suite)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazes verify [-workload name]... [-seeds n] [-strategy a,b] [-json]\n"+
			"       blazes verify -shrink dir | -coordinator URL | -replay trace.json | -reshrink dir\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, "\nworkloads: %s, generated-<n>c-s<seed>\n", strings.Join(workloadNames(), ", "))
		fmt.Fprintf(stderr, "strategies: %s\n", strings.Join(strategy.Names(), ", "))
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "blazes: verify: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		fs.Usage()
		return exitUsage
	}
	prefer, err := strategy.Parse(*strategyArg)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		fs.Usage()
		return exitUsage
	}
	if *replayPath != "" {
		if len(workloads) > 0 || *shrinkDir != "" || *coordinator != "" || *reshrinkDir != "" {
			fmt.Fprintf(stderr, "blazes: verify: -replay cannot be combined with sweep flags\n")
			fs.Usage()
			return exitUsage
		}
		return runReplay(ctx, *replayPath, *jsonOut, stdout, stderr)
	}
	if *reshrinkDir != "" {
		if len(workloads) > 0 || *shrinkDir != "" || *coordinator != "" {
			fmt.Fprintf(stderr, "blazes: verify: -reshrink cannot be combined with sweep flags\n")
			fs.Usage()
			return exitUsage
		}
		return runReshrink(ctx, *reshrinkDir, stdout, stderr)
	}
	if *seeds <= 0 {
		fmt.Fprintf(stderr, "blazes: verify: -seeds must be positive\n")
		fs.Usage()
		return exitUsage
	}
	if *batch < 0 {
		fmt.Fprintf(stderr, "blazes: verify: -batch must be non-negative\n")
		fs.Usage()
		return exitUsage
	}

	selected := verify.Workloads()
	if len(workloads) > 0 {
		selected = nil
		for _, name := range workloads {
			w, err := verify.LookupWorkload(name)
			if err != nil {
				fmt.Fprintln(stderr, "blazes: verify:", err)
				fs.Usage()
				return exitUsage
			}
			selected = append(selected, w)
		}
	}
	// Every flag is checked above; creating the trace directory is the
	// first side effect.
	if *shrinkDir != "" {
		if err := os.MkdirAll(*shrinkDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
	}
	if *coordinator != "" {
		return runCoordinated(ctx, *coordinator, workloads, *seeds, *batch, *strategyArg, *shrinkDir, *jsonOut, stdout, stderr)
	}

	opts := verify.Options{Seeds: *seeds, Prefer: prefer}
	var reports []*verify.Report
	holds := true
	for _, w := range selected {
		var (
			rep    *verify.Report
			traces []*verify.Trace
			err    error
		)
		if *shrinkDir != "" {
			rep, traces, err = verify.CheckShrink(ctx, w, opts)
		} else {
			rep, err = verify.CheckContext(ctx, w, opts)
		}
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		if err := writeTraces(*shrinkDir, traces, stderr); err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		reports = append(reports, rep)
		holds = holds && rep.Holds
		if !*jsonOut {
			fmt.Fprint(stdout, rep.Summary())
		}
	}
	if *jsonOut {
		out, err := verify.MarshalReports(reports)
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		fmt.Fprintln(stdout, string(out))
	}
	if !holds {
		fmt.Fprintln(stderr, "blazes: verify: guarantee violated")
		return exitError
	}
	return exitOK
}

// runReplay re-executes a shrunk trace artifact: exit 0 when the recorded
// Run/Inst/Diverge classification reproduces, 1 when it does not.
func runReplay(ctx context.Context, path string, jsonOut bool, stdout, stderr io.Writer) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		return exitError
	}
	tr, err := verify.DecodeTrace(data)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		return exitError
	}
	res, err := verify.Replay(ctx, tr)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify: replay:", err)
		return exitError
	}
	if jsonOut {
		out, err := verify.MarshalReplay(res)
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		fmt.Fprintf(stdout, "trace: %s under %s/%s, %d seed(s), %d event(s), %d shrink step(s)\n",
			tr.Workload, tr.Mechanism, tr.Plan.Name, len(tr.Seeds), len(tr.Events), tr.Steps)
		fmt.Fprintf(stdout, "expected [%s] observed [%s]\n", res.Expected, res.Observed)
		if res.Detail != "" {
			fmt.Fprintf(stdout, "detail: %s\n", res.Detail)
		}
	}
	if !res.Reproduced {
		fmt.Fprintln(stderr, "blazes: verify: trace did not reproduce its recorded anomalies")
		return exitError
	}
	if !jsonOut {
		fmt.Fprintln(stdout, "reproduced")
	}
	return exitOK
}

// runReshrink re-minimizes every blazes.trace/v1 artifact in dir in place:
// each trace's recorded event set is delta-debugged again (no sweep
// re-run) and the file rewritten with the fresh 1-minimal result. A trace
// whose recorded anomalies no longer reproduce is stale: it is reported
// and left untouched, and the command exits 1.
func runReshrink(ctx context.Context, dir string, stdout, stderr io.Writer) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		return exitError
	}
	found, failed := 0, 0
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		tr, err := verify.DecodeTrace(data)
		if err != nil {
			// Not a trace artifact (or a future schema); skip, don't fail.
			fmt.Fprintf(stderr, "blazes: verify: reshrink: skipping %s: %v\n", path, err)
			continue
		}
		found++
		min, err := verify.Reshrink(ctx, tr)
		if err != nil {
			fmt.Fprintf(stderr, "blazes: verify: reshrink: %s: %v\n", path, err)
			failed++
			continue
		}
		out, err := min.Encode()
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		fmt.Fprintf(stdout, "reshrunk %s: %d → %d event(s), %d seed(s), %d step(s)\n",
			path, len(tr.Events), len(min.Events), len(min.Seeds), min.Steps)
	}
	if found == 0 {
		fmt.Fprintf(stderr, "blazes: verify: reshrink: no trace artifacts in %s\n", dir)
		return exitError
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "blazes: verify: reshrink: %d of %d trace(s) failed\n", failed, found)
		return exitError
	}
	return exitOK
}

// runCoordinated submits the sweep to a coordinator, streams progress to
// stderr while worker processes drain it, and renders the merged result
// exactly like a local run.
func runCoordinated(ctx context.Context, coordinator string, workloads []string, seeds, batch int, strategyList, shrinkDir string, jsonOut bool, stdout, stderr io.Writer) int {
	base := strings.TrimRight(coordinator, "/")
	var st service.SweepStatus
	err := postJSON(ctx, base+"/v1/sweeps", service.SweepSubmitRequest{
		Workloads: workloads,
		Seeds:     seeds,
		Strategy:  strategyList,
		Shrink:    shrinkDir != "",
		BatchSize: batch,
	}, &st)
	if err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		return exitError
	}
	fmt.Fprintf(stderr, "sweep %s: %d cells, %d batches, %d seeds — waiting for workers\n",
		st.Sweep, st.Cells, st.Batches, st.SeedsTotal)

	lastDone := -1
	for st.State != "complete" {
		sleepCtx(ctx, 300*time.Millisecond)
		if ctx.Err() != nil {
			fmt.Fprintln(stderr, "blazes: verify:", ctx.Err())
			return exitError
		}
		if err := getJSON(ctx, base+"/v1/sweeps/"+st.Sweep, &st); err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		if st.SeedsDone != lastDone || st.State == "shrinking" {
			lastDone = st.SeedsDone
			fmt.Fprintf(stderr, "sweep %s: %s %d/%d seeds\n", st.Sweep, st.State, st.SeedsDone, st.SeedsTotal)
		}
	}
	if st.Error != "" {
		fmt.Fprintf(stderr, "blazes: verify: sweep %s failed: %s\n", st.Sweep, st.Error)
		return exitError
	}
	for _, msg := range st.ShrinkErrors {
		fmt.Fprintf(stderr, "blazes: verify: shrink: %s\n", msg)
	}
	if err := writeTraces(shrinkDir, st.Traces, stderr); err != nil {
		fmt.Fprintln(stderr, "blazes: verify:", err)
		return exitError
	}
	if jsonOut {
		out, err := verify.MarshalReports(st.Reports)
		if err != nil {
			fmt.Fprintln(stderr, "blazes: verify:", err)
			return exitError
		}
		fmt.Fprintln(stdout, string(out))
	} else {
		for _, rep := range st.Reports {
			fmt.Fprint(stdout, rep.Summary())
		}
	}
	if st.Holds == nil || !*st.Holds {
		fmt.Fprintln(stderr, "blazes: verify: guarantee violated")
		return exitError
	}
	return exitOK
}

// writeTraces persists shrunk traces as self-contained artifacts named
// <workload>-<mechanism>-<plan>.json.
func writeTraces(dir string, traces []*verify.Trace, stderr io.Writer) error {
	if dir == "" {
		return nil
	}
	for _, tr := range traces {
		data, err := tr.Encode()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.json", slug(tr.Workload), slug(tr.Mechanism), slug(tr.Plan.Name)))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "shrunk trace: %s (%d seed(s), %d event(s), %d step(s))\n",
			path, len(tr.Seeds), len(tr.Events), tr.Steps)
	}
	return nil
}

// slug renders a name ("sequencing (M1)") filesystem-safe
// ("sequencing-m1").
func slug(s string) string {
	var b strings.Builder
	dash := false
	for _, r := range strings.ToLower(s) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			dash = false
		default:
			if !dash && b.Len() > 0 {
				b.WriteByte('-')
				dash = true
			}
		}
	}
	return strings.TrimRight(b.String(), "-")
}

func workloadNames() []string {
	var names []string
	for _, w := range verify.Workloads() {
		names = append(names, w.Name())
	}
	return names
}
