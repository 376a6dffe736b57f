package dataflow

import (
	"testing"

	"blazes/internal/core"
)

// TestSynthesizeWordcountUnsealed: Blazes recommends ordering (the Storm
// "transactional topology") for the unsealed wordcount.
func TestSynthesizeWordcountUnsealed(t *testing.T) {
	a, err := Analyze(WordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	sts := Synthesize(a, SynthesisOptions{Prefer: []string{StrategySealing, StrategySequencing}})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one", sts)
	}
	st := sts[0]
	if st.Component != "Count" || st.Mechanism != CoordSequenced {
		t.Errorf("strategy = %v, want sequencing at Count", st)
	}
	if len(st.Inputs) != 1 || st.Inputs[0] != "words" {
		t.Errorf("inputs = %v, want [words]", st.Inputs)
	}
}

// TestSynthesizeWordcountSealed: with Seal_batch the analyzer emits a
// seal-based strategy at Count so the runtime installs the punctuation
// protocol — no global ordering.
func TestSynthesizeWordcountSealed(t *testing.T) {
	a, err := Analyze(WordcountTopology(true))
	if err != nil {
		t.Fatal(err)
	}
	sts := Synthesize(a, SynthesisOptions{Prefer: []string{StrategySealing, StrategySequencing}})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one", sts)
	}
	st := sts[0]
	if st.Component != "Count" || st.Mechanism != CoordSealed {
		t.Errorf("strategy = %v, want sealing at Count", st)
	}
	key, ok := st.SealKeys["words"]
	if !ok || key.String() != "batch" {
		t.Errorf("seal keys = %v, want words sealed on batch (derived through Splitter)", st.SealKeys)
	}
}

// TestSynthesizePOOR: POOR admits no compatible seal; the strategy is
// dynamic ordering at the Report component only (the Cache merely inherits
// the anomaly and must not be separately coordinated).
func TestSynthesizePOOR(t *testing.T) {
	a, err := Analyze(AdNetwork(POOR))
	if err != nil {
		t.Fatal(err)
	}
	sts := Synthesize(a, SynthesisOptions{})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one (Report)", sts)
	}
	if sts[0].Component != "Report" || sts[0].Mechanism != CoordDynamicOrder {
		t.Errorf("strategy = %v, want dynamic ordering at Report", sts[0])
	}
}

// TestSynthesizeCAMPAIGNSealed: the campaign seal is compatible, so the
// synthesized strategy is seal-based coordination at Report.
func TestSynthesizeCAMPAIGNSealed(t *testing.T) {
	a, err := Analyze(AdNetwork(CAMPAIGN, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	sts := Synthesize(a, SynthesisOptions{})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one", sts)
	}
	st := sts[0]
	if st.Component != "Report" || st.Mechanism != CoordSealed {
		t.Errorf("strategy = %v, want sealing at Report", st)
	}
	if key := st.SealKeys["clicks"]; key.String() != "campaign" {
		t.Errorf("seal keys = %v, want clicks on campaign", st.SealKeys)
	}
}

// TestSynthesizeTHRESHNeedsNothing: confluent dataflows need no strategy.
func TestSynthesizeTHRESHNeedsNothing(t *testing.T) {
	a, err := Analyze(AdNetwork(THRESH))
	if err != nil {
		t.Fatal(err)
	}
	if sts := Synthesize(a, SynthesisOptions{}); len(sts) != 0 {
		t.Errorf("strategies = %v, want none", sts)
	}
}

// TestRepairWordcountSequencing: repairing the unsealed wordcount with M1
// yields a deterministic dataflow (Async) — exactly what making the topology
// transactional achieves.
func TestRepairWordcountSequencing(t *testing.T) {
	a, sts, err := Repair(WordcountTopology(false), SynthesisOptions{Prefer: []string{StrategySealing, StrategySequencing}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) == 0 {
		t.Fatal("want at least one strategy")
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("repaired verdict = %s, want Async", a.Verdict)
	}
}

// TestRepairPOORDynamicOrder: repairing POOR with M2 removes replication
// anomalies but leaves cross-run nondeterminism — the residual verdict is
// Run, matching Figure 5's guarantee for dynamic ordering.
func TestRepairPOORDynamicOrder(t *testing.T) {
	a, sts, err := Repair(AdNetwork(POOR), SynthesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) == 0 {
		t.Fatal("want at least one strategy")
	}
	if !a.Verdict.Equal(core.Run) {
		t.Errorf("repaired verdict = %s, want Run (M2 leaves cross-run ND)", a.Verdict)
	}
	if a.Verdict.Severity() >= core.Inst.Severity() {
		t.Error("M2 must remove cross-instance anomalies")
	}
}

// TestRepairCAMPAIGNSealed: with compatible seals, repair settles on the
// seal strategy and the dataflow is fully deterministic.
func TestRepairCAMPAIGNSealed(t *testing.T) {
	a, sts, err := Repair(AdNetwork(CAMPAIGN, "campaign"), SynthesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foundSeal := false
	for _, st := range sts {
		if st.Mechanism == CoordSealed && st.Component == "Report" {
			foundSeal = true
		}
		if st.Mechanism == CoordDynamicOrder || st.Mechanism == CoordSequenced {
			t.Errorf("unexpected ordering strategy %v — sealing suffices", st)
		}
	}
	if !foundSeal {
		t.Errorf("strategies = %v, want sealing at Report", sts)
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", a.Verdict)
	}
}

func TestApplyResolvesSupernodeMembers(t *testing.T) {
	g := NewGraph("ab")
	g.Component("A").AddPath("in", "out", core.OWStar())
	g.Component("B").AddPath("in", "out", core.CW)
	g.Source("src", "A", "in")
	g.Connect("ab", "A", "out", "B", "in")
	g.Connect("ba", "B", "out", "A", "in")
	g.Sink("snk", "B", "out")

	ng := Apply(g, []Strategy{{Component: "scc+A+B", Mechanism: CoordDynamicOrder}})
	if ng.Lookup("A").Coordination != CoordDynamicOrder || ng.Lookup("B").Coordination != CoordDynamicOrder {
		t.Error("supernode strategy should apply to all members")
	}
}

func TestStrategyString(t *testing.T) {
	sts := []Strategy{
		{Component: "C", Mechanism: CoordNone},
		{Component: "C", Mechanism: CoordSequenced, Inputs: []string{"a", "b"}},
	}
	if got := sts[0].String(); got != "C: no coordination required" {
		t.Errorf("String = %q", got)
	}
	if got := sts[1].String(); got != "C: sequencing (M1) over inputs a, b" {
		t.Errorf("String = %q", got)
	}
}
