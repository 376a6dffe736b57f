package dataflow

import "testing"

// Hooks for the external test package, which can import the topology
// generator (an importer of this package) where in-package tests cannot.

// DiffReference holds the compiled structure, analysis and synthesis of g
// to the map-keyed reference oracle and describes the first difference.
var DiffReference = diffReference

// Visited reports how many output interfaces the last Analyze worked
// through.
func (inc *Incremental) Visited() int { return inc.visited }

// Planned reports how many components the last Synthesize planned.
func (inc *Incremental) Planned() int { return inc.planned }

// FullEqual holds an analysis of g to the reference analysis of g.
var FullEqual = fullEqual

// WordcountByHand is the in-package tests' hand-built wordcount.
var WordcountByHand = wordcountTopology

// CollapsedOf compiles g and returns the graph the analysis runs over.
var CollapsedOf = collapsedOf

// ComponentNames lists g's components in declaration order.
var ComponentNames = names

// Plan offers one component's derivation to a strategy chain.
var Plan = plan

// RandomCyclicGraph draws a small layered graph with cycles.
var RandomCyclicGraph = randomCyclicGraph

// StreamNames lists the names of streams, in order.
var StreamNames = streamNames

// AssertStep checks that comp's derivation contains the given step.
var AssertStep = assertStep

// OutputLabel returns the merged label of comp's output interface.
var OutputLabel = outputLabel

// CyclicOf compiles g and returns the components that lie on one of its
// interface-level cycles.
func CyclicOf(t *testing.T, g *Graph) map[string]bool {
	t.Helper()
	st, err := compile(g)
	if err != nil {
		t.Fatal(err)
	}
	return st.cyclic
}
