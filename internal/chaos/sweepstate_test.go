package chaos

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func fakeOutcome(final string) Outcome {
	return Outcome{Replicas: []ReplicaOutcome{{Final: final}}}
}

// TestSweepStateClaimsAndExpiry: leases are exclusive until they expire,
// expired leases are re-issued, and duplicate reports resolve
// first-report-wins.
func TestSweepStateClaimsAndExpiry(t *testing.T) {
	cells := []Cell{{Workload: "synthetic-set", Mechanism: "none", Plan: FaultPlan{Name: "baseline"}, Seeds: 4, Confluent: true}}
	st := NewSweepState(cells, 2, 10)
	if st.Batches() != 2 {
		t.Fatalf("Batches() = %d, want 2", st.Batches())
	}

	first := st.Claim(100, "w1", 10)
	if len(first) != 2 {
		t.Fatalf("w1 claimed %d batches, want 2", len(first))
	}
	if got := st.Claim(105, "w2", 10); len(got) != 0 {
		t.Fatalf("w2 claimed %d leased batches before expiry", len(got))
	}
	second := st.Claim(111, "w2", 10)
	if len(second) != 2 {
		t.Fatalf("w2 re-claimed %d batches after expiry, want 2", len(second))
	}

	// w2 reports both batches; the second completes the cell.
	if cellDone, err := st.Report(second[0].ID, []Outcome{fakeOutcome("a"), fakeOutcome("a")}); err != nil || cellDone != -1 {
		t.Fatalf("first report: (%d, %v), want (-1, nil)", cellDone, err)
	}
	// The stale worker's late report for the same batch is ignored.
	if cellDone, err := st.Report(first[0].ID, []Outcome{fakeOutcome("STALE"), fakeOutcome("STALE")}); err != nil || cellDone != -1 {
		t.Fatalf("duplicate report: (%d, %v), want (-1, nil)", cellDone, err)
	}
	if cellDone, err := st.Report(second[1].ID, []Outcome{fakeOutcome("a"), fakeOutcome("a")}); err != nil || cellDone != 0 {
		t.Fatalf("completing report: (%d, %v), want (0, nil)", cellDone, err)
	}
	if !st.Done() {
		t.Fatal("Done() = false after all batches reported")
	}
	outs, err := st.CellOutcomes(0)
	if err != nil {
		t.Fatalf("CellOutcomes: %v", err)
	}
	for i, out := range outs {
		if out.Replicas[0].Final != "a" {
			t.Fatalf("seed %d: stale report overwrote the first one: %q", i+1, out.Replicas[0].Final)
		}
	}
	if done, total := st.Progress(); done != 4 || total != 4 {
		t.Fatalf("Progress() = (%d, %d), want (4, 4)", done, total)
	}
}

// TestSweepStateRejects: malformed reports fail loudly instead of
// corrupting the ledger.
func TestSweepStateRejects(t *testing.T) {
	cells := []Cell{{Workload: "synthetic-set", Mechanism: "none", Plan: FaultPlan{Name: "baseline"}, Seeds: 3, Confluent: true}}
	st := NewSweepState(cells, 2, 0)
	if _, err := st.Report(99, nil); err == nil {
		t.Error("unknown batch accepted")
	}
	if _, err := st.Report(0, []Outcome{fakeOutcome("a")}); err == nil {
		t.Error("short outcome list accepted")
	}
	if _, err := st.CellOutcomes(0); err == nil {
		t.Error("CellOutcomes served an incomplete cell")
	}
	if _, err := st.Sweeps(); err == nil {
		t.Error("Sweeps served an unfinished sweep")
	}
	// TTL 0: leases never expire.
	if got := st.Claim(0, "w1", 10); len(got) != 2 {
		t.Fatalf("claimed %d, want 2", len(got))
	}
	if got := st.Claim(1<<60, "w2", 10); len(got) != 0 {
		t.Fatalf("TTL-0 lease was re-issued (%d batches)", len(got))
	}
}

// TestSweepDeterminism is the distributed-merge acceptance bar at the
// chaos layer: two concurrent workers — each resolving the workload
// fresh by name, exactly as worker processes do — claim interleaved
// seed-range batches, and the assembled report is byte-identical to a
// single-process Check of the same configuration.
func TestSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Seeds: 12}

	want, err := Check(ctx, SyntheticChains(false), cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanCheck(SyntheticChains(false), cfg)
	if err != nil {
		t.Fatalf("PlanCheck: %v", err)
	}
	st := NewSweepState(plan.Cells, 5, 0)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for wi := 0; wi < 2; wi++ {
		wg.Add(1)
		go func(wi int) {
			defer wg.Done()
			for {
				batches := st.Claim(0, "worker", 2)
				if len(batches) == 0 {
					return
				}
				for _, b := range batches {
					cell := plan.Cells[b.Cell]
					w, err := LookupWorkload(cell.Workload)
					if err != nil {
						errs[wi] = err
						return
					}
					outs, err := RunCell(ctx, w, cell, nil, b.SeedFrom, b.SeedTo)
					if err != nil {
						errs[wi] = err
						return
					}
					if _, err := st.Report(b.ID, outs); err != nil {
						errs[wi] = err
						return
					}
				}
			}
		}(wi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("worker: %v", err)
		}
	}

	sweeps, err := st.Sweeps()
	if err != nil {
		t.Fatalf("Sweeps: %v", err)
	}
	got, err := plan.Assemble(sweeps)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("distributed merge differs from single-process Check:\n--- distributed ---\n%s\n--- single ---\n%s", gotJSON, wantJSON)
	}
}
