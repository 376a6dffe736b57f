package dataflow

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"blazes/internal/core"
)

// outputTopoOrderQuadratic is the first implementation of the output
// interface order: a slice-backed ready queue fully re-sorted after the
// initial fill and after every push. It pops the lexicographically least
// ready node each round, so the compiled structure's heap-based Kahn over
// dense ids must produce the identical sequence. Kept here as the
// regression oracle.
func outputTopoOrderQuadratic(g *Graph) []ifaceNode {
	ig := refBuildIfaceGraph(g)
	indeg := map[ifaceNode]int{}
	for _, n := range ig.nodes {
		indeg[n] += 0
	}
	for _, vs := range ig.adj {
		for _, w := range vs {
			indeg[w]++
		}
	}
	var queue []ifaceNode
	for _, n := range ig.nodes {
		if indeg[n] == 0 {
			queue = append(queue, n)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return less(queue[i], queue[j]) })
	var outs []ifaceNode
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v.out {
			outs = append(outs, v)
		}
		for _, w := range ig.adj[v] {
			indeg[w]--
			if indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
		sort.Slice(queue, func(i, j int) bool { return less(queue[i], queue[j]) })
	}
	return outs
}

// randomLayeredGraph builds a random layered DAG: `layers` ranks of `width`
// single-path components, each non-first-rank component fed by 1–3 random
// producers from the rank above, sources on rank 0 and sinks on the last.
func randomLayeredGraph(rng *rand.Rand, layers, width int) *Graph {
	g := NewGraph("rand")
	anns := []core.Annotation{core.CR, core.CW, core.ORStar(), core.OWGate("k")}
	name := func(l, i int) string { return fmt.Sprintf("C%02d_%02d", l, i) }
	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			g.Component(name(l, i)).AddPath("in", "out", anns[rng.Intn(len(anns))])
		}
	}
	stream := 0
	for i := 0; i < width; i++ {
		g.Source(fmt.Sprintf("src%02d", i), name(0, i), "in")
		g.Sink(fmt.Sprintf("snk%02d", i), name(layers-1, i), "out")
	}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				from := name(l-1, rng.Intn(width))
				g.Connect(fmt.Sprintf("e%04d", stream), from, "out", name(l, i), "in")
				stream++
			}
		}
	}
	return g
}

func TestOutputTopoOrderMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		layers := 2 + rng.Intn(5)
		width := 1 + rng.Intn(8)
		g := randomLayeredGraph(rng, layers, width)
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random graph: %v", trial, err)
		}
		// Exercise the collapsed form too: add a back-edge cycle on some
		// trials so the order runs over supernode interfaces as well.
		if trial%3 == 0 && layers >= 2 {
			g.Connect("back", fmt.Sprintf("C%02d_%02d", 1, 0), "out", "C00_00", "in")
		}
		st, err := compile(g)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := st.orderNodes()
		want := outputTopoOrderQuadratic(st.collapsed)
		if len(got) != len(want) {
			t.Fatalf("trial %d: order length %d != %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: %+v != %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// orderNodes names the structure's topological order.
func (st *structure) orderNodes() []ifaceNode {
	out := make([]ifaceNode, len(st.order))
	for r, v := range st.order {
		out[r] = ifaceNode{st.comps[st.nodeComp[v]].Name, st.nodeIface[v], true}
	}
	return out
}

// TestIfaceHeapOrdering: interface nodes interned in less() order pop off
// the id heap in less() order.
func TestIfaceHeapOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h idHeap
	ids := make([]int32, 0, 200)
	for i := 0; i < 200; i++ {
		id := int32(rng.Intn(120))
		ids = append(ids, id)
		h.push(id)
	}
	slices.Sort(ids)
	for i, want := range ids {
		if got := h.pop(); got != want {
			t.Fatalf("pop %d = %d, want %d", i, got, want)
		}
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}
