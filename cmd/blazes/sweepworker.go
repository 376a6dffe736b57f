// The sweep-worker subcommand: the worker half of distributed
// verification. A coordinator (`blazes serve`) plans a sweep into seed-
// range batches; workers claim batches over HTTP, run them locally with
// the same RunCell the single-process check uses, and report the
// outcomes back. Any number of workers can serve the same coordinator;
// the merged report is byte-identical regardless of how the batches were
// sharded.
//
// Usage:
//
//	blazes sweep-worker -coordinator URL [-sweep id] [-poll d] [-name w] [-max n]
//
// With -sweep the worker drains that one sweep and exits when it
// completes; without it the worker serves every running sweep until
// interrupted. A batch's seeds run on one worker per GOMAXPROCS.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"blazes/service"
	"blazes/verify"
)

func runSweepWorker(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazes sweep-worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		coordinator = fs.String("coordinator", "", "coordinator base URL, e.g. http://127.0.0.1:8351 (required)")
		sweepID     = fs.String("sweep", "", "serve one sweep id and exit when it completes (default: every running sweep, until interrupted)")
		poll        = fs.Duration("poll", 500*time.Millisecond, "poll interval when no work is claimable")
		name        = fs.String("name", "", "worker name reported in claims (default: host-pid)")
		maxBatches  = fs.Int("max", 2, "max batches per claim")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazes sweep-worker -coordinator URL [-sweep id] [-poll d] [-name w] [-max n]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "blazes: sweep-worker: unexpected arguments: %s\n", strings.Join(fs.Args(), " "))
		fs.Usage()
		return exitUsage
	}
	if *coordinator == "" {
		fmt.Fprintf(stderr, "blazes: sweep-worker: -coordinator is required\n")
		fs.Usage()
		return exitUsage
	}
	if *maxBatches <= 0 || *poll <= 0 {
		fmt.Fprintf(stderr, "blazes: sweep-worker: -max and -poll must be positive\n")
		fs.Usage()
		return exitUsage
	}
	worker := *name
	if worker == "" {
		host, _ := os.Hostname()
		worker = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	base := strings.TrimRight(*coordinator, "/")

	for ctx.Err() == nil {
		ids := []string{*sweepID}
		if *sweepID == "" {
			var list service.SweepListResponse
			if err := getJSON(ctx, base+"/v1/sweeps", &list); err != nil {
				fmt.Fprintln(stderr, "blazes: sweep-worker:", err)
				sleepCtx(ctx, *poll)
				continue
			}
			ids = ids[:0]
			for _, st := range list.Sweeps {
				if st.State == "running" {
					ids = append(ids, st.Sweep)
				}
			}
		}
		worked := false
		for _, id := range ids {
			n, done, err := workSweep(ctx, base, id, worker, *maxBatches, stderr)
			if err != nil {
				if ctx.Err() != nil {
					return exitOK
				}
				fmt.Fprintf(stderr, "blazes: sweep-worker: sweep %s: %v\n", id, err)
				if *sweepID != "" {
					return exitError
				}
				continue
			}
			worked = worked || n > 0
			if done && *sweepID != "" {
				fmt.Fprintf(stdout, "sweep %s: all batches reported\n", id)
				return exitOK
			}
		}
		if !worked {
			sleepCtx(ctx, *poll)
		}
	}
	return exitOK
}

// workSweep performs one claim round against sweep id: claim up to max
// batches, run each locally, report the outcomes. It returns the number
// of batches completed and whether the sweep has every batch reported.
func workSweep(ctx context.Context, base, id, worker string, max int, stderr io.Writer) (int, bool, error) {
	var claim service.SweepClaimResponse
	err := postJSON(ctx, base+"/v1/sweeps/"+id+"/claim",
		service.SweepClaimRequest{Worker: worker, Max: max}, &claim)
	if err != nil {
		return 0, false, err
	}
	done := claim.Done
	for _, b := range claim.Batches {
		wl, err := verify.LookupWorkload(b.Cell.Workload)
		if err != nil {
			return 0, done, err
		}
		outs, err := verify.RunCell(ctx, wl, b.Cell, b.SeedFrom, b.SeedTo)
		if err != nil {
			// The claim lease expires and the batch is re-issued; nothing
			// to report.
			return 0, done, err
		}
		var rep service.SweepReportResponse
		if err := postJSON(ctx, base+"/v1/sweeps/"+id+"/report",
			service.SweepReportRequest{Batch: &b.ID, Outcomes: outs}, &rep); err != nil {
			return 0, done, err
		}
		fmt.Fprintf(stderr, "sweep %s: batch %d (%s under %s/%s seeds [%d,%d)) reported, %d/%d seeds done\n",
			id, b.ID, b.Cell.Workload, b.Cell.Mechanism, b.Cell.Plan.Name, b.SeedFrom, b.SeedTo,
			rep.SeedsDone, rep.SeedsTotal)
		done = rep.Done
	}
	return len(claim.Batches), done, nil
}

// getJSON / postJSON are the tiny coordinator client: JSON in, JSON out,
// any non-2xx status surfaced as an error carrying the server's message.
func getJSON(ctx context.Context, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	return doJSON(req, out)
}

func postJSON(ctx context.Context, url string, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return doJSON(req, out)
}

func doJSON(req *http.Request, out any) error {
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var e service.ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, e.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}
