package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"blazes/verify"
)

// sweepWorker drives the claim/run/report loop over the handler — exactly
// what a `blazes sweep-worker` process does over the wire — until the
// sweep has no work left for it.
func sweepWorker(t *testing.T, h http.Handler, sweepID, name string) {
	ctx := context.Background()
	for {
		code, body := call(t, h, "POST", "/v1/sweeps/"+sweepID+"/claim", map[string]any{"worker": name, "max": 2})
		if code != http.StatusOK {
			t.Errorf("%s: claim: %d %s", name, code, body)
			return
		}
		var claim SweepClaimResponse
		if err := json.Unmarshal([]byte(body), &claim); err != nil {
			t.Errorf("%s: claim decode: %v", name, err)
			return
		}
		if len(claim.Batches) == 0 {
			// Done, or every remaining batch is leased to the other worker.
			return
		}
		for _, b := range claim.Batches {
			wl, err := verify.LookupWorkload(b.Cell.Workload)
			if err != nil {
				t.Errorf("%s: lookup %q: %v", name, b.Cell.Workload, err)
				return
			}
			outs, err := verify.RunCell(ctx, wl, b.Cell, 0, b.SeedFrom, b.SeedTo)
			if err != nil {
				t.Errorf("%s: run batch %d: %v", name, b.ID, err)
				return
			}
			code, body := call(t, h, "POST", "/v1/sweeps/"+sweepID+"/report",
				map[string]any{"batch": b.ID, "outcomes": outs})
			if code != http.StatusOK {
				t.Errorf("%s: report batch %d: %d %s", name, b.ID, code, body)
				return
			}
		}
	}
}

func submitSweep(t *testing.T, h http.Handler, req map[string]any) SweepStatus {
	t.Helper()
	code, body := call(t, h, "POST", "/v1/sweeps", req)
	if code != http.StatusCreated {
		t.Fatalf("submit: %d %s", code, body)
	}
	var st SweepStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

func sweepStatus(t *testing.T, h http.Handler, id string) SweepStatus {
	t.Helper()
	code, body := call(t, h, "GET", "/v1/sweeps/"+id, nil)
	if code != http.StatusOK {
		t.Fatalf("status: %d %s", code, body)
	}
	var st SweepStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSweepDistributedDeterminism is the acceptance bar at the HTTP layer:
// two workers share a sweep's batches over the wire — outcomes crossing a
// JSON boundary — and the coordinator's merged report is identical to a
// single-process verify.Check of the same configuration.
func TestSweepDistributedDeterminism(t *testing.T) {
	h := New(Options{}).Handler()
	st := submitSweep(t, h, map[string]any{
		"workloads":  []string{"synthetic-chains"},
		"seeds":      12,
		"batch_size": 5,
	})
	if st.State != "running" || st.SeedsTotal == 0 || st.Batches < 2 {
		t.Fatalf("submit status: %+v", st)
	}

	var wg sync.WaitGroup
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			sweepWorker(t, h, st.Sweep, fmt.Sprintf("w%d", wi))
		}(wi)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	final := sweepStatus(t, h, st.Sweep)
	if final.State != "complete" {
		t.Fatalf("state = %q after all reports, want complete (%+v)", final.State, final)
	}
	if final.Holds == nil || !*final.Holds {
		t.Fatalf("sweep did not hold: %+v", final)
	}
	if len(final.Reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(final.Reports))
	}

	want, err := verify.Check(verify.SyntheticChains(false), verify.Options{Seeds: 12})
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)
	gotJSON, _ := json.Marshal(final.Reports[0])
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("distributed report differs from single-process Check:\n--- distributed ---\n%s\n--- single ---\n%s", gotJSON, wantJSON)
	}
}

// TestSweepShrinkOnAnomaly: a sweep submitted with shrink delta-debugs
// every anomalous cell — here the stripped divergence-reproduction cells —
// into replayable 1-minimal traces in the background, and the status
// endpoint serves them once the sweep completes.
func TestSweepShrinkOnAnomaly(t *testing.T) {
	h := New(Options{}).Handler()
	st := submitSweep(t, h, map[string]any{
		"workloads":  []string{"synthetic-chains"},
		"seeds":      6,
		"shrink":     true,
		"batch_size": 4,
	})
	sweepWorker(t, h, st.Sweep, "solo")
	if t.Failed() {
		t.FailNow()
	}

	var final SweepStatus
	deadline := time.Now().Add(60 * time.Second)
	for {
		final = sweepStatus(t, h, st.Sweep)
		if final.State == "complete" {
			break
		}
		if final.State != "shrinking" {
			t.Fatalf("state = %q while waiting on shrinks, want shrinking", final.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep still %q after deadline: %+v", final.State, final)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(final.ShrinkErrors) > 0 {
		t.Fatalf("shrink errors: %v", final.ShrinkErrors)
	}
	if len(final.Traces) == 0 {
		t.Fatal("anomalous stripped cells produced no traces")
	}
	for _, tr := range final.Traces {
		res, err := verify.Replay(context.Background(), tr)
		if err != nil {
			t.Fatalf("replay %s/%s: %v", tr.Workload, tr.Plan.Name, err)
		}
		if !res.Reproduced {
			t.Errorf("trace %s/%s did not reproduce: observed %s, expected %s",
				tr.Workload, tr.Plan.Name, res.Observed, res.Expected)
		}
	}

	code, body := call(t, h, "GET", "/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var stats StatsResponse
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatal(err)
	}
	sw := stats.Sweeps
	if sw.Submitted < 1 || sw.Completed < 1 || sw.BatchesReported == 0 || sw.TracesShrunk == 0 {
		t.Fatalf("sweep stats missing activity: %+v", sw)
	}
}

// TestWorkloadNamesResolveAlike: /v1/verify and /v1/sweeps accept the same
// workload names — the suite's, and a generated topology's, which only
// LookupWorkload can resolve — and refuse an unknown one by listing the
// valid spellings.
func TestWorkloadNamesResolveAlike(t *testing.T) {
	h := New(Options{}).Handler()
	for _, ep := range []struct {
		path string
		ok   int
	}{
		{"/v1/verify", http.StatusOK},
		{"/v1/sweeps", http.StatusCreated},
	} {
		for _, tc := range []struct {
			name string
			code int
		}{
			{"synthetic-set", ep.ok},
			{"generated-40c-s8", ep.ok},
			{"no-such-workload", http.StatusBadRequest},
		} {
			code, body := call(t, h, "POST", ep.path, map[string]any{"workloads": []string{tc.name}, "seeds": 2})
			if code != tc.code {
				t.Errorf("%s %s: %d %s, want %d", ep.path, tc.name, code, body, tc.code)
			}
			if tc.code == http.StatusBadRequest &&
				(!strings.Contains(body, "synthetic-set") || !strings.Contains(body, ", generated-")) {
				t.Errorf("%s %s: error does not list the valid spellings: %s", ep.path, tc.name, body)
			}
		}
	}
}

// TestGeneratedWorkloadBound: a generated topology one component over the
// bound is refused with 400 before anything generates it.
func TestGeneratedWorkloadBound(t *testing.T) {
	h := New(Options{}).Handler()
	name := fmt.Sprintf("generated-%dc-s1", maxGeneratedComponents+1)
	for _, path := range []string{"/v1/verify", "/v1/sweeps"} {
		code, body := call(t, h, "POST", path, map[string]any{"workloads": []string{name}})
		if code != http.StatusBadRequest || !strings.Contains(body, "at most 10000") {
			t.Errorf("%s %s: %d %s, want 400 naming the bound", path, name, code, body)
		}
	}
}

// TestSweepEndpointValidation: malformed submissions, reports and lookups
// fail loudly with the right status codes.
func TestSweepEndpointValidation(t *testing.T) {
	h := New(Options{}).Handler()

	for _, tc := range []struct {
		req  map[string]any
		code int
	}{
		{map[string]any{"seeds": -1}, http.StatusBadRequest},
		{map[string]any{"batch_size": -2}, http.StatusBadRequest},
		{map[string]any{"workloads": []string{"no-such-workload"}}, http.StatusBadRequest},
	} {
		if code, body := call(t, h, "POST", "/v1/sweeps", tc.req); code != tc.code {
			t.Errorf("submit %v: %d %s, want %d", tc.req, code, body, tc.code)
		}
	}
	if code, _ := call(t, h, "GET", "/v1/sweeps/sw99", nil); code != http.StatusNotFound {
		t.Errorf("status of unknown sweep: %d, want 404", code)
	}
	if code, _ := call(t, h, "POST", "/v1/sweeps/sw99/claim", nil); code != http.StatusNotFound {
		t.Errorf("claim on unknown sweep: %d, want 404", code)
	}

	st := submitSweep(t, h, map[string]any{"workloads": []string{"synthetic-set"}, "seeds": 2})
	if code, body := call(t, h, "POST", "/v1/sweeps/"+st.Sweep+"/report",
		map[string]any{"outcomes": []verify.Outcome{}}); code != http.StatusBadRequest {
		t.Errorf("report without batch id: %d %s, want 400", code, body)
	}
	if code, body := call(t, h, "POST", "/v1/sweeps/"+st.Sweep+"/report",
		map[string]any{"batch": 0, "outcomes": []verify.Outcome{}}); code != http.StatusBadRequest {
		t.Errorf("report with short outcomes: %d %s, want 400", code, body)
	}

	sweepWorker(t, h, st.Sweep, "solo")
	if t.Failed() {
		t.FailNow()
	}
	final := sweepStatus(t, h, st.Sweep)
	if final.State != "complete" || final.Holds == nil || !*final.Holds {
		t.Fatalf("confluent sweep did not complete holding: %+v", final)
	}
	// A drained sweep answers claims with done and no batches.
	code, body := call(t, h, "POST", "/v1/sweeps/"+st.Sweep+"/claim", nil)
	if code != http.StatusOK {
		t.Fatalf("claim after completion: %d %s", code, body)
	}
	var claim SweepClaimResponse
	if err := json.Unmarshal([]byte(body), &claim); err != nil {
		t.Fatal(err)
	}
	if !claim.Done || len(claim.Batches) != 0 {
		t.Fatalf("claim after completion = %+v, want done with no batches", claim)
	}
	// The index lists both sweeps, light (no reports/traces).
	code, body = call(t, h, "GET", "/v1/sweeps", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	var list SweepListResponse
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Sweeps) != 1 || len(list.Sweeps[0].Reports) != 0 {
		t.Fatalf("list = %+v, want 1 light entry", list)
	}
}
