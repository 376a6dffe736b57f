package dataflow

import (
	"testing"

	"blazes/internal/core"
)

func TestSelfCycleUpgradesAnnotation(t *testing.T) {
	// A self-loop whose cycle contains a CR path and a CW path: the cycle
	// paths collapse to the highest severity (CW).
	g := NewGraph("loop")
	c := g.Component("A")
	c.AddPath("in", "out", core.CR)     // acyclic path
	c.AddPath("loop", "loop2", core.CR) // on the cycle
	c.AddPath("loop", "out", core.CW)   // also on the cycle? no — loop→out leaves
	g.Source("src", "A", "in")
	g.Sink("snk", "A", "out")
	g.Connect("self", "A", "loop2", "A", "loop")
	g.Sink("snk2", "A", "loop2")

	cg := collapsedOf(t, g)
	if cg == g {
		t.Fatal("self-loop should trigger collapse")
	}
	var loopPath *Path
	for i, p := range cg.Lookup("A").Paths {
		if p.From == "loop" && p.To == "loop2" {
			loopPath = &cg.Lookup("A").Paths[i]
		}
	}
	if loopPath == nil {
		t.Fatal("loop path missing after collapse")
	}
	// Only the loop→loop2 path is on the cycle; its annotation stays CR
	// (max over cycle paths = CR).
	if loopPath.Ann.String() != "CR" {
		t.Errorf("cycle path annotation = %s, want CR", loopPath.Ann)
	}
	// The in→out path is untouched.
	for _, p := range cg.Lookup("A").Paths {
		if p.From == "in" && p.To == "out" && p.Ann.String() != "CR" {
			t.Errorf("acyclic path annotation = %s, want CR", p.Ann)
		}
	}
}

func TestMultiComponentCycleCollapses(t *testing.T) {
	// A → B → A at path granularity: both components merge into one
	// supernode carrying the worst annotation (OW*).
	g := NewGraph("ab")
	g.Component("A").AddPath("in", "out", core.CW)
	g.Component("B").AddPath("in", "out", core.OWStar())
	g.Source("src", "A", "in")
	g.Connect("ab", "A", "out", "B", "in")
	g.Connect("ba", "B", "out", "A", "in")
	g.Sink("snk", "B", "out")

	cg := collapsedOf(t, g)
	super := cg.Lookup("scc+A+B")
	if super == nil {
		t.Fatalf("expected supernode scc+A+B; components = %v", names(cg))
	}
	if cg.Lookup("A") != nil || cg.Lookup("B") != nil {
		t.Error("members should be absorbed into the supernode")
	}
	// Collapsed annotation: highest severity among cycle paths = OW*.
	for _, p := range super.Paths {
		if p.Ann.String() != "OW*" {
			t.Errorf("supernode path %s→%s annotation = %s, want OW*", p.From, p.To, p.Ann)
		}
	}
	// Intra-group streams are gone; source and sink are rewired.
	if cg.Stream("ab") != nil || cg.Stream("ba") != nil {
		t.Error("intra-cycle streams must be dropped")
	}
	if cg.Stream("src") == nil || cg.Stream("snk") == nil {
		t.Error("boundary streams must survive")
	}
	if err := cg.Validate(); err != nil {
		t.Errorf("collapsed graph invalid: %v", err)
	}
}

func TestAcyclicGraphReturnedUnchanged(t *testing.T) {
	g := wordcountTopology(false)
	if cg := collapsedOf(t, g); cg != g {
		t.Error("acyclic graph should be returned unchanged")
	}
}

func TestMultiComponentCycleRepAndCoordinationPropagate(t *testing.T) {
	g := NewGraph("ab")
	a := g.Component("A")
	a.AddPath("in", "out", core.CW)
	a.Rep = true
	b := g.Component("B")
	b.AddPath("in", "out", core.CW)
	b.Coordination = CoordSequenced
	g.Source("src", "A", "in")
	g.Connect("ab", "A", "out", "B", "in")
	g.Connect("ba", "B", "out", "A", "in")
	g.Sink("snk", "B", "out")

	cg := collapsedOf(t, g)
	super := cg.Lookup("scc+A+B")
	if super == nil {
		t.Fatal("expected supernode")
	}
	if !super.Rep {
		t.Error("supernode should inherit Rep from members")
	}
	if super.Coordination != CoordSequenced {
		t.Error("supernode should inherit the strongest coordination")
	}
}

// collapsedOf compiles g and returns the graph the analysis runs over.
func collapsedOf(t *testing.T, g *Graph) *Graph {
	t.Helper()
	st, err := compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return st.collapsed
}

func names(g *Graph) []string {
	var out []string
	for _, c := range g.Components() {
		out = append(out, c.Name)
	}
	return out
}
