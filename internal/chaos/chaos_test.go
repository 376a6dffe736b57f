package chaos

import (
	"context"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// TestGuaranteeAcrossSubstrates is the acceptance property of the chaos
// harness: for every substrate (Storm wordcount, replicated Bloom report
// server, the full ad network, the synthetic Figure 5 component), across
// DefaultSeeds (64) schedules per (mechanism, fault plan) configuration:
//
//   - runs under the analyzer's recommended coordination are
//     outcome-invariant within Figure 5's allowance, and
//   - stripping the coordination from every order-sensitive configuration
//     reproduces a detected divergence.
func TestGuaranteeAcrossSubstrates(t *testing.T) {
	cases := []struct {
		w Workload
		// wantMech is a substring of the coordinated sweeps' mechanism.
		wantMech string
		// bare marks confluent workloads verified without coordination.
		bare bool
		// wantStripped are anomaly classes the uncoordinated runs must
		// exhibit (beyond DivergenceReproduced, which Holds implies).
		wantStripped Anomalies
	}{
		{w: Wordcount(), wantMech: "sealing", wantStripped: Anomalies{Run: true, Diverge: true}},
		{w: ReplicatedReport(dataflow.THRESH), wantMech: "none", bare: true},
		{w: ReplicatedReport(dataflow.POOR), wantMech: "dynamic ordering", wantStripped: Anomalies{Run: true, Inst: true}},
		{w: ReplicatedReport(dataflow.CAMPAIGN), wantMech: "sealing", wantStripped: Anomalies{Run: true, Inst: true}},
		{w: AdNetwork(), wantMech: "sealing", wantStripped: Anomalies{Run: true, Inst: true}},
		{w: SyntheticSet(), wantMech: "none", bare: true},
		{w: SyntheticChains(true), wantMech: "sealing", wantStripped: Anomalies{Run: true, Inst: true, Diverge: true}},
		{w: SyntheticChains(false), wantMech: "dynamic ordering", wantStripped: Anomalies{Run: true, Inst: true, Diverge: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.w.Name(), func(t *testing.T) {
			t.Parallel()
			rep, err := Check(context.Background(), tc.w, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Holds {
				t.Fatalf("guarantee violated:\n%s", rep.Summary())
			}
			if len(rep.Coordinated) == 0 {
				t.Fatal("no coordinated sweeps ran")
			}
			for _, s := range rep.Coordinated {
				if s.Seeds < DefaultSeeds {
					t.Errorf("sweep %s/%s explored %d schedules, want ≥ %d", s.Mechanism, s.Plan, s.Seeds, DefaultSeeds)
				}
				if !strings.Contains(s.Mechanism, tc.wantMech) {
					t.Errorf("coordinated sweep ran under %q, want mechanism containing %q", s.Mechanism, tc.wantMech)
				}
			}
			if tc.bare {
				if len(rep.Uncoordinated) != 0 {
					t.Errorf("confluent workload ran %d stripped sweeps, want none", len(rep.Uncoordinated))
				}
				return
			}
			if len(rep.Strategies) == 0 {
				t.Error("non-confluent workload reported no synthesized strategies")
			}
			var stripped Anomalies
			for _, s := range rep.Uncoordinated {
				stripped.Run = stripped.Run || s.Observed.Run
				stripped.Inst = stripped.Inst || s.Observed.Inst
				stripped.Diverge = stripped.Diverge || s.Observed.Diverge
			}
			if !tc.wantStripped.Within(stripped) {
				t.Errorf("stripped sweeps observed [%s], want at least [%s]:\n%s",
					stripped, tc.wantStripped, rep.Summary())
			}
		})
	}
}

// TestSequencingEliminatesRunAnomalies: under M1 (preordained order) even
// the cross-run anomaly that M2 permits must disappear.
func TestSequencingEliminatesRunAnomalies(t *testing.T) {
	t.Parallel()
	rep, err := Check(context.Background(), ReplicatedReport(dataflow.POOR), Config{Prefer: []string{dataflow.StrategySealing, dataflow.StrategySequencing}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("guarantee violated:\n%s", rep.Summary())
	}
	for _, s := range rep.Coordinated {
		if !strings.Contains(s.Mechanism, "sequencing") {
			t.Errorf("mechanism = %q, want M1 sequencing", s.Mechanism)
		}
		if s.Observed.Any() {
			t.Errorf("M1 sweep %s observed [%s], want none", s.Plan, s.Observed)
		}
	}
}

// TestOracleClassifiesAnomalies pins the three anomaly classes directly.
func TestOracleClassifiesAnomalies(t *testing.T) {
	mk := func(trace0, final0, trace1, final1 string) Outcome {
		return Outcome{Replicas: []ReplicaOutcome{
			{Trace: []string{trace0}, Final: final0},
			{Trace: []string{trace1}, Final: final1},
		}}
	}

	o := NewOracle(false)
	o.Observe(1, mk("a", "s", "a", "s"))
	o.Observe(2, mk("a", "s", "a", "s"))
	if o.Anomalies().Any() {
		t.Errorf("identical runs flagged: %s", o.Anomalies())
	}

	o = NewOracle(false)
	o.Observe(1, mk("a", "s", "b", "s"))
	if a := o.Anomalies(); !a.Inst || a.Diverge || a.Run {
		t.Errorf("trace mismatch across replicas = %s, want Inst only", a)
	}

	o = NewOracle(false)
	o.Observe(1, mk("a", "s", "a", "u"))
	if a := o.Anomalies(); !a.Diverge || !a.Inst {
		// A final-state divergence also differs in the comparable trace.
		t.Errorf("final mismatch across replicas = %s, want Diverge (and Inst)", a)
	}

	o = NewOracle(false)
	o.Observe(1, mk("a", "s", "a", "s"))
	o.Observe(2, mk("b", "s", "b", "s"))
	if a := o.Anomalies(); !a.Run || a.Inst || a.Diverge {
		t.Errorf("cross-run mismatch = %s, want Run only", a)
	}
	if len(o.Details()) == 0 {
		t.Error("no detail recorded for cross-run mismatch")
	}
}

// TestOracleConfluentComparesFinalsOnly: transient output subsets are
// benign for confluent components; only eventual outcomes count.
func TestOracleConfluentComparesFinalsOnly(t *testing.T) {
	o := NewOracle(true)
	o.Observe(1, Outcome{Replicas: []ReplicaOutcome{
		{Trace: []string{"a", "ab"}, Final: "abc"},
		{Trace: []string{"b", "bc"}, Final: "abc"},
	}})
	o.Observe(2, Outcome{Replicas: []ReplicaOutcome{
		{Trace: []string{"c"}, Final: "abc"},
		{Trace: []string{}, Final: "abc"},
	}})
	if o.Anomalies().Any() {
		t.Errorf("confluent oracle flagged transient differences: %s", o.Anomalies())
	}
	o.Observe(3, Outcome{Replicas: []ReplicaOutcome{
		{Final: "abc"}, {Final: "abd"},
	}})
	if a := o.Anomalies(); !a.Diverge {
		t.Errorf("eventual divergence missed: %s", a)
	}
}

// TestFaultPlanShape pins the plan→link transformation.
func TestFaultPlanShape(t *testing.T) {
	base := sim.LinkConfig{MinDelay: 1 * sim.Millisecond, MaxDelay: 2 * sim.Millisecond, DupProb: 0.1}
	p := FaultPlan{
		Name:        "x",
		DelaySpread: 8 * sim.Millisecond,
		DupProb:     0.25,
		Partitions:  []sim.PartitionWindow{{From: 1, Until: 2}},
	}
	got := p.Shape(base)
	if got.MaxDelay != 10*sim.Millisecond {
		t.Errorf("MaxDelay = %v, want 10ms", got.MaxDelay)
	}
	if got.DupProb != 0.25 {
		t.Errorf("DupProb = %v, want plan's 0.25", got.DupProb)
	}
	if len(got.Partitions) != 1 {
		t.Errorf("Partitions = %v", got.Partitions)
	}
	if base.Partitions != nil {
		t.Error("Shape mutated the input's partition slice")
	}
	// A stronger link-level DupProb survives.
	strong := p.Shape(sim.LinkConfig{DupProb: 0.9})
	if strong.DupProb != 0.9 {
		t.Errorf("DupProb = %v, want link's stronger 0.9", strong.DupProb)
	}
}

// TestAnomaliesWithin pins the subset check Figure 5 verdicts rest on.
func TestAnomaliesWithin(t *testing.T) {
	if !(Anomalies{Run: true}).Within(Anomalies{Run: true}) {
		t.Error("Run within Run must hold")
	}
	if (Anomalies{Run: true, Inst: true}).Within(Anomalies{Run: true}) {
		t.Error("Inst must not be within Run-only")
	}
	if !(Anomalies{}).Within(Anomalies{}) {
		t.Error("empty within empty must hold")
	}
}

// TestWordcountExactnessUnderCoordination: the coordinated wordcount is not
// merely schedule-invariant — it equals the schedule-independent ground
// truth (the second synthetic replica) on every schedule and fault plan.
func TestWordcountExactnessUnderCoordination(t *testing.T) {
	t.Parallel()
	w := Wordcount()
	for _, plan := range DefaultPlans() {
		out, err := w.Run(7, plan, dataflow.CoordSealed)
		if err != nil {
			t.Fatal(err)
		}
		if out.Replicas[0].Final != out.Replicas[1].Final {
			t.Errorf("plan %s: committed store differs from ground truth", plan.Name)
		}
	}
}
