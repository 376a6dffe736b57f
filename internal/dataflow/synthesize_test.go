package dataflow

import (
	"testing"

	"blazes/internal/core"
)

// TestSynthesizeWordcountUnsealed: Blazes recommends ordering (the Storm
// "transactional topology") for the unsealed wordcount.
func TestSynthesizeWordcountUnsealed(t *testing.T) {
	a, err := Analyze(wordcountTopology(false))
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
	a, err := Analyze(wordcountTopology(true))
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

// TestRepairWordcountSequencing: repairing the unsealed wordcount with M1
// yields a deterministic dataflow (Async) — exactly what making the topology
// transactional achieves.
func TestRepairWordcountSequencing(t *testing.T) {
	a, sts, err := Repair(wordcountTopology(false), SynthesisOptions{Prefer: []string{StrategySealing, StrategySequencing}})
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
