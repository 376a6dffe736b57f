package chaos

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// loadCorpus reads the seeded-anomaly corpus: each testdata/anomaly_*.json
// file is one Cell known to exhibit an anomaly, covering hand-built and
// generated workloads, plans with and without injected fault events. A
// file names its mechanism by the Coordination's String form.
func loadCorpus(t *testing.T) map[string]Cell {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "anomaly_*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no anomaly corpus under testdata/ (err=%v)", err)
	}
	cells := make(map[string]Cell, len(files))
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatalf("read %s: %v", f, err)
		}
		var doc struct {
			Cell
			Mechanism string
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		cell := doc.Cell
		if cell.Mechanism, err = ParseCoordination(doc.Mechanism); err != nil {
			t.Fatalf("parse %s: %v", f, err)
		}
		cells[filepath.Base(f)] = cell
	}
	return cells
}

// TestShrinkCorpus is the shrinker's acceptance property, over every
// corpus cell:
//
//	(a) the shrunk trace still reproduces its anomaly classification —
//	    checked through the full artifact round trip (encode, decode,
//	    Replay with the workload re-resolved by name);
//	(b) the trace is 1-minimal — removing any single remaining event
//	    (a seed, a delay chunk, the dup toggle, a partition half-window)
//	    no longer reproduces the classification.
func TestShrinkCorpus(t *testing.T) {
	for name, cell := range loadCorpus(t) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			w, err := LookupWorkload(cell.Workload)
			if err != nil {
				t.Fatalf("LookupWorkload: %v", err)
			}
			tr, err := ShrinkCell(ctx, w, cell, nil)
			if err != nil {
				t.Fatalf("ShrinkCell: %v", err)
			}
			if !tr.Anomalies.Any() {
				t.Fatal("shrunk trace records no anomaly")
			}
			if len(tr.Seeds) == 0 || len(tr.Events) == 0 {
				t.Fatalf("degenerate trace: seeds=%v events=%v", tr.Seeds, tr.Events)
			}
			if len(tr.Events) > len(planEvents(cell.Plan))+cell.Seeds {
				t.Fatalf("trace grew: %d events from a %d-event cell", len(tr.Events), len(planEvents(cell.Plan))+cell.Seeds)
			}

			// (a) replayable after a full artifact round trip.
			data, err := tr.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			decoded, err := DecodeTrace(data)
			if err != nil {
				t.Fatalf("DecodeTrace: %v", err)
			}
			res, err := Replay(ctx, decoded)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if !res.Reproduced {
				t.Fatalf("trace does not reproduce: observed %v, expected %v (%s)", res.Observed, res.Expected, res.Detail)
			}

			// Replay is deterministic: a second replay agrees byte for byte.
			res2, err := Replay(ctx, decoded)
			if err != nil {
				t.Fatalf("Replay (second): %v", err)
			}
			if *res != *res2 {
				t.Fatalf("replay nondeterministic: %+v vs %+v", res, res2)
			}

			// (b) 1-minimality under the shrinker's own predicate.
			sh := newShrinker(w, cell, tr.Anomalies)
			for i, ev := range tr.Events {
				sub := append(append([]Event{}, tr.Events[:i]...), tr.Events[i+1:]...)
				ok, err := sh.reproduces(ctx, sub)
				if err != nil {
					t.Fatalf("reproduces without %s: %v", ev, err)
				}
				if ok {
					t.Errorf("not 1-minimal: still reproduces without event %d (%s)", i, ev)
				}
			}
		})
	}
}

// TestShrinkRejectsHealthyCell: a cell with no anomaly is not shrinkable.
func TestShrinkRejectsHealthyCell(t *testing.T) {
	cell := Cell{
		Workload:  "synthetic-set",
		Mechanism: dataflow.CoordNone,
		Plan:      FaultPlan{Name: "baseline"},
		Seeds:     4,
		Confluent: true,
	}
	if _, err := ShrinkCell(context.Background(), SyntheticSet(), cell, nil); err == nil {
		t.Fatal("ShrinkCell accepted an anomaly-free cell")
	}
}

// TestPlanEventsRoundTrip: decomposing a plan and reassembling the full
// event set reconstructs it exactly — the identity ddmin starts from.
func TestPlanEventsRoundTrip(t *testing.T) {
	for _, plan := range DefaultPlans() {
		events := planEvents(plan)
		got, seeds := eventsPlan(plan.Name, events)
		if len(seeds) != 0 {
			t.Errorf("%s: plan events yielded seeds %v", plan.Name, seeds)
		}
		if got.Name != plan.Name || got.DelaySpread != plan.DelaySpread || got.DupProb != plan.DupProb {
			t.Errorf("%s: round trip %+v != %+v", plan.Name, got, plan)
		}
		// Window chunks must tile the original windows exactly.
		var covered sim.Time
		for _, w := range got.Partitions {
			covered += w.Until - w.From
		}
		var want sim.Time
		for _, w := range plan.Partitions {
			want += w.Until - w.From
		}
		if covered != want {
			t.Errorf("%s: partition coverage %v != %v", plan.Name, covered, want)
		}
	}
}

// TestDecodeTraceRejects: version and shape checks on the artifact.
func TestDecodeTraceRejects(t *testing.T) {
	base := &Trace{
		Version:   TraceVersion,
		Workload:  "synthetic-chains",
		Mechanism: "none",
		BasePlan:  "baseline",
		Plan:      FaultPlan{Name: "baseline"},
		Seeds:     []int64{1, 2},
		Anomalies: Anomalies{Run: true},
	}
	ok, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(ok); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Trace){
		"wrong version":     func(tr *Trace) { tr.Version = "blazes.trace/v0" },
		"unknown mechanism": func(tr *Trace) { tr.Mechanism = "hope" },
		"no seeds":          func(tr *Trace) { tr.Seeds = nil },
	} {
		tr := *base
		mutate(&tr)
		data, err := tr.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeTrace(data); err == nil {
			t.Errorf("%s: DecodeTrace accepted it", name)
		}
	}
	if _, err := DecodeTrace([]byte("not json")); err == nil {
		t.Error("DecodeTrace accepted junk")
	}
}
