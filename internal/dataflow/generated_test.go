package dataflow_test

import (
	"context"
	"math"
	"testing"

	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/race"
	"blazes/internal/topogen"
)

func generated(t *testing.T, components int, seed int64) *dataflow.Graph {
	t.Helper()
	res, err := topogen.Generate(topogen.Default(components, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestGeneratedMatchesReference runs the reference differential
// (TestStructureMatchesReference) on generated 1000-component topologies:
// the shapes the benchmark measures — layered, replicated, with cycle pairs
// and gossip self-loops — rather than the small adversarial ones.
func TestGeneratedMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("the reference analysis is quadratic")
	}
	for seed := int64(1); seed <= 5; seed++ {
		if err := dataflow.DiffReference(generated(t, 1000, seed)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestAnalyzeAllocsLinear pins the allocation count of a one-shot analysis
// per component: the same at 1k and 4k generated components (a pass that
// rebuilds a per-node map, or rescans the streams per node, grows with the
// graph long before it shows on a clock), and under a ceiling. Measured 7.3
// when pinned, down from 48 with the map-keyed builders.
func TestAnalyzeAllocsLinear(t *testing.T) {
	perComponent := func(n int) float64 {
		g := generated(t, n, 8)
		return testing.AllocsPerRun(3, func() {
			if _, err := dataflow.Analyze(g); err != nil {
				t.Fatal(err)
			}
		}) / float64(n)
	}
	small, large := perComponent(1000), perComponent(4000)
	if math.Abs(large-small) > 0.1*small {
		t.Errorf("Analyze allocates %.2f/component at 1k but %.2f at 4k", small, large)
	}
	if large > 10 {
		t.Errorf("Analyze allocates %.2f/component at 4k, want ≤ 10", large)
	}
}

// leafFlipper analyzes a generated n-component graph and returns the engine
// with an edit that flips the annotation of one leaf component — one that
// feeds only sinks and lies on no cycle — between two annotations and
// re-analyzes. Both derivations are memoized by the time it returns.
func leafFlipper(t *testing.T, n int) (*dataflow.Incremental, func(k int) dataflow.Stats) {
	t.Helper()
	ctx := context.Background()
	inc := dataflow.NewIncremental(generated(t, n, 8))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	g := inc.Graph()
	feedsOnlySinks := map[string]bool{}
	for _, s := range g.Streams() {
		if !s.IsSource() {
			if _, seen := feedsOnlySinks[s.FromComp]; !seen {
				feedsOnlySinks[s.FromComp] = true
			}
			feedsOnlySinks[s.FromComp] = feedsOnlySinks[s.FromComp] && s.IsSink()
		}
	}
	flips := [2]core.Annotation{core.OWStar(), core.CR}
	comps := g.Components()
	for i := len(comps) - 1; i >= 0; i-- {
		leaf := comps[i]
		if !feedsOnlySinks[leaf.Name] {
			continue
		}
		edit := func(k int) dataflow.Stats {
			leaf.SetPathAnn(leaf.Paths[0].From, leaf.Paths[0].To, flips[k%2])
			inc.NoteAnnotationChange(leaf.Name)
			_, stats, err := inc.Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			return stats
		}
		if edit(0).Rebuilt {
			continue // on a gossip self-loop: the flip recompiles
		}
		edit(1)
		return inc, edit
	}
	t.Fatal("no acyclic leaf component")
	return nil, nil
}

// TestLabelEditCostIndependentOfGraphSize: re-analysis after flipping the
// annotation of one leaf component visits the same number of output
// interfaces and allocates the same, whether the graph has 1k or 4k
// components — the edit pays for the label chain it changes, not the graph.
func TestLabelEditCostIndependentOfGraphSize(t *testing.T) {
	cost := func(n int) (visited int, allocs float64) {
		inc, edit := leafFlipper(t, n)
		k := 0
		allocs = testing.AllocsPerRun(10, func() { edit(k); k++ })
		return inc.Visited(), allocs
	}
	v1, a1 := cost(1000)
	v4, a4 := cost(4000)
	if v1 != v4 || a1 != a4 {
		t.Errorf("a leaf flip visits %d interfaces and allocates %.0f at 1k, but %d and %.0f at 4k", v1, a1, v4, a4)
	}
	if v1 > 2 || a1 > 4 {
		t.Errorf("a leaf flip visits %d interfaces and allocates %.0f, want ≤ 2 and ≤ 4", v1, a1)
	}
}

// TestSynthesisCostIndependentOfGraphSize: synthesis after the same flip
// plans the one component whose derivation changed and allocates the same
// at 1k and 4k components; a synthesis with nothing to plan returns the very
// list it returned before.
func TestSynthesisCostIndependentOfGraphSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes what allocates")
	}
	cost := func(n int) (planned int, allocs float64) {
		inc, edit := leafFlipper(t, n)
		all := inc.Synthesize(dataflow.SynthesisOptions{})
		if inc.Planned() < n/2 {
			t.Fatalf("the first synthesis planned %d of %d components", inc.Planned(), n)
		}
		if again := inc.Synthesize(dataflow.SynthesisOptions{}); inc.Planned() != 0 || len(again) != len(all) || &again[0] != &all[0] {
			t.Fatalf("a synthesis with nothing to plan planned %d components, or returned another list", inc.Planned())
		}
		k := 0
		allocs = testing.AllocsPerRun(10, func() {
			stats := edit(k)
			k++
			inc.Synthesize(dataflow.SynthesisOptions{})
			if len(stats.Components) != 1 || inc.Planned() != 1 {
				t.Fatalf("the flip re-derived components %v and synthesis planned %d", stats.Components, inc.Planned())
			}
		})
		return inc.Planned(), allocs
	}
	p1, a1 := cost(1000)
	p4, a4 := cost(4000)
	if p1 != p4 || a1 != a4 {
		t.Errorf("synthesis after a leaf flip plans %d components and allocates %.0f at 1k, but %d and %.0f at 4k", p1, a1, p4, a4)
	}
}
