package dataflow

import (
	"context"
	"fmt"
	"iter"
	"strings"

	"blazes/internal/core"
)

// OutputAnalysis records the derivation performed at one output interface:
// the inference steps for every (input label × path) pair and the Figure 10
// reconciliation, in the notation of Section V-A4. It is immutable once
// derived and may be shared between analyses.
type OutputAnalysis struct {
	// Iface names the output interface.
	Iface string
	// Steps lists the inference steps of the paths ending at the interface.
	Steps []core.Step
	// Reconciliation is the interface's Figure 10 run; its Output is the
	// interface's merged label.
	Reconciliation core.Reconciliation
}

// ComponentAnalysis is a view of the derivation performed at one component
// of the analyzed (collapsed) graph.
type ComponentAnalysis struct {
	// Component is the analyzed component; cycle supernodes are named
	// "scc+A+B".
	Component *Component

	a     *Analysis
	index int32
}

// Outputs yields the component's output-interface derivations in interface
// name order.
func (ca ComponentAnalysis) Outputs() iter.Seq[*OutputAnalysis] {
	return func(yield func(*OutputAnalysis) bool) {
		st := ca.a.st
		for v := st.compStart[ca.index]; v < st.compStart[ca.index+1]; v++ {
			if st.nodeOut[v] && !yield(&ca.a.derived[st.rank[v]].OutputAnalysis) {
				return
			}
		}
	}
}

// Output returns the derivation at the named output interface, or nil.
func (ca ComponentAnalysis) Output(iface string) *OutputAnalysis {
	if v := ca.a.st.node(ca.index, iface, true); v >= 0 {
		return &ca.a.derived[ca.a.st.rank[v]].OutputAnalysis
	}
	return nil
}

// Derivations yields the component's output-interface derivations in
// propagation order, the order Steps concatenates them in. Derivations are
// immutable and keep their address while they stay in force (across passes
// and across structure rebuilds), so a component that yields the same
// pointers as before has, its configuration being equal, the same record.
func (ca ComponentAnalysis) Derivations() iter.Seq[*OutputAnalysis] {
	return func(yield func(*OutputAnalysis) bool) {
		for _, r := range ca.a.st.outRanks.at(ca.index) {
			if !yield(&ca.a.derived[r].OutputAnalysis) {
				return
			}
		}
	}
}

// Steps yields every inference step performed at the component, output
// interfaces in propagation order.
func (ca ComponentAnalysis) Steps() iter.Seq[core.Step] {
	return func(yield func(core.Step) bool) {
		for d := range ca.Derivations() {
			for _, step := range d.Steps {
				if !yield(step) {
					return
				}
			}
		}
	}
}

// Analysis is the result of analyzing a dataflow graph: a label for every
// stream, the derivation at every component, and the overall verdict (the
// worst label on any sink stream, or on any stream if there are no sinks).
// Labels and derivations live in flat slices over the compiled structure's
// stream ids and topological ranks; read them through the methods.
type Analysis struct {
	Graph *Graph
	// Collapsed is the graph actually analyzed (after cycle collapse);
	// identical to Graph when the dataflow has no interface-level cycles.
	Collapsed *Graph
	// Verdict is the highest-severity label among sink streams.
	Verdict core.Label

	st      *structure
	labels  []core.Label  // stream id → derived label
	derived []*derivation // topological rank → the derivation in force
}

func newAnalysis(st *structure) *Analysis {
	return &Analysis{
		Graph:     st.g,
		Collapsed: st.collapsed,
		st:        st,
		labels:    make([]core.Label, len(st.streams)),
		derived:   make([]*derivation, len(st.order)),
	}
}

// Analyze runs the Blazes analysis over g: validate, collapse cycles,
// propagate labels over output interfaces in topological order (inference
// per path, reconciliation per output interface, merge), and compute the
// verdict. It is one cold pass of the incremental engine.
func Analyze(g *Graph) (*Analysis, error) {
	a, _, err := NewIncremental(g).Analyze(context.Background())
	return a, err
}

// Components yields the derivation at every component of the collapsed
// graph, in name order.
func (a *Analysis) Components() iter.Seq[ComponentAnalysis] {
	return func(yield func(ComponentAnalysis) bool) {
		for i := range a.st.comps {
			if !yield(a.ComponentAt(i)) {
				return
			}
		}
	}
}

// ComponentAt returns the derivation at the i-th component Components
// yields.
func (a *Analysis) ComponentAt(i int) ComponentAnalysis {
	return ComponentAnalysis{Component: a.st.comps[i], a: a, index: int32(i)}
}

// Component returns the derivation at the named component of the collapsed
// graph.
func (a *Analysis) Component(name string) (ComponentAnalysis, bool) {
	i, ok := a.st.component(name)
	if !ok {
		return ComponentAnalysis{}, false
	}
	return a.ComponentAt(int(i)), true
}

// Streams yields every stream of the collapsed graph with its derived
// label, in name order.
func (a *Analysis) Streams() iter.Seq2[*Stream, core.Label] {
	return func(yield func(*Stream, core.Label) bool) {
		for _, id := range a.st.byName {
			if !yield(a.st.streams[id], a.labels[id]) {
				return
			}
		}
	}
}

// StreamAt returns the i-th stream Streams yields, with its derived label.
func (a *Analysis) StreamAt(i int) (*Stream, core.Label) {
	id := a.st.byName[i]
	return a.st.streams[id], a.labels[id]
}

// Label returns the derived label of the named stream (the zero label for
// a stream the collapsed graph does not have).
func (a *Analysis) Label(stream string) core.Label {
	if id := a.st.streamNamed(stream); id >= 0 {
		return a.labels[id]
	}
	return core.Label{}
}

// computeVerdict returns the worst label over the sink streams, or over
// every stream when the dataflow has no sinks; the first of equally severe
// labels wins.
func (a *Analysis) computeVerdict() core.Label {
	verdict := core.Async
	for i, id := range a.st.verdictOver {
		if l := a.labels[id]; i == 0 || l.Severity() > verdict.Severity() {
			verdict = l
		}
	}
	return verdict
}

// sourceLabel derives the initial label of an external input stream: its
// Seal_key annotation, or the conservative default Async.
func sourceLabel(s *Stream) core.Label {
	if !s.Seal.IsEmpty() {
		return core.SealOn(s.Seal)
	}
	return core.Async
}

// Deterministic reports whether the whole dataflow is guaranteed to produce
// deterministic output contents (verdict at most Async).
func (a *Analysis) Deterministic() bool {
	return a.Verdict.Severity() <= core.Async.Severity()
}

// Explain renders the full derivation: per component (in name order), each
// inference step and reconciliation, then stream labels and verdict.
func (a *Analysis) Explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow %q\n", a.Graph.Name)
	for ca := range a.Components() {
		fmt.Fprintf(&b, "\ncomponent %s\n", ca.Component.Name)
		for st := range ca.Steps() {
			fmt.Fprintf(&b, "  %s\n", st)
		}
		for out := range ca.Outputs() {
			fmt.Fprintf(&b, "  output %s: %s\n", out.Iface, indent(out.Reconciliation.String(), "  "))
		}
	}
	fmt.Fprintf(&b, "\nstreams\n")
	for s, l := range a.Streams() {
		fmt.Fprintf(&b, "  %-20s %s\n", s.Name, l)
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", a.Verdict)
	return b.String()
}

func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}
