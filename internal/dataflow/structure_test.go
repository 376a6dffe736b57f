package dataflow

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// randomCyclicGraph builds a random layered graph with everything the
// structure builder has to get right: components with several input and
// output interfaces, replicated components and streams, sealed sources,
// declared merges and schemas, pre-coordinated components, gossip
// self-loops, and back edges that close cycles over two or more components
// (sometimes through only some of a component's paths, so supernodes keep
// external interfaces).
func randomCyclicGraph(rng *rand.Rand) *Graph {
	g := NewGraph("rand")
	anns := []core.Annotation{core.CR, core.CW, core.ORStar(), core.OWStar(),
		core.ORGate("k"), core.OWGate("k"), core.OWGate("j", "k"), core.ORGate("j")}
	ann := func() core.Annotation { return anns[rng.Intn(len(anns))] }
	layers, width := 2+rng.Intn(5), 1+rng.Intn(6)
	name := func(l, i int) string { return fmt.Sprintf("C%02d_%02d", l, i) }

	for l := 0; l < layers; l++ {
		for i := 0; i < width; i++ {
			c := g.Component(name(l, i))
			c.AddPath("in", "out", ann())
			if rng.Intn(3) == 0 { // a second input rendezvousing on out
				c.AddPath("ctl", "out", ann())
			}
			if rng.Intn(4) == 0 { // a second output
				c.AddPath("in", "aux", ann())
			}
			c.Rep = rng.Intn(5) == 0
			if rng.Intn(6) == 0 {
				c.Merge = "max"
			}
			if rng.Intn(12) == 0 {
				c.Coordination = Coordination(1 + rng.Intn(6))
			}
			if rng.Intn(4) == 0 {
				c.OutSchema = map[string]fd.AttrSet{"out": fd.NewAttrSet("j", "k")}
			}
		}
	}
	n := 0
	connect := func(from, fromIface, to, toIface string) {
		s := g.Connect(fmt.Sprintf("e%04d", n), from, fromIface, to, toIface)
		s.Rep = rng.Intn(6) == 0
		n++
	}
	inputs := func(c *Component) []string { return c.Inputs() }
	for i := 0; i < width; i++ {
		for _, in := range inputs(g.Lookup(name(0, i))) {
			s := g.Source(fmt.Sprintf("src%02d_%s", i, in), name(0, i), in)
			if rng.Intn(2) == 0 {
				s.Seal = fd.NewAttrSet([]string{"k", "j"}[rng.Intn(2)])
			}
		}
		for _, out := range g.Lookup(name(layers-1, i)).Outputs() {
			g.Sink(fmt.Sprintf("snk%02d_%s", i, out), name(layers-1, i), out)
		}
	}
	for l := 1; l < layers; l++ {
		for i := 0; i < width; i++ {
			for _, in := range inputs(g.Lookup(name(l, i))) {
				for k := rng.Intn(3); k >= 0; k-- {
					from := g.Lookup(name(l-1, rng.Intn(width)))
					outs := from.Outputs()
					connect(from.Name, outs[rng.Intn(len(outs))], name(l, i), in)
				}
			}
		}
	}
	for k := rng.Intn(4); k > 0; k-- { // back edges: cycles across layers
		l := 1 + rng.Intn(layers-1)
		from, to := g.Lookup(name(l, rng.Intn(width))), g.Lookup(name(rng.Intn(l), rng.Intn(width)))
		outs, ins := from.Outputs(), to.Inputs()
		connect(from.Name, outs[rng.Intn(len(outs))], to.Name, ins[rng.Intn(len(ins))])
	}
	for k := rng.Intn(3); k > 0; k-- { // gossip self-loops
		c := g.Lookup(name(rng.Intn(layers), rng.Intn(width)))
		outs, ins := c.Outputs(), c.Inputs()
		connect(c.Name, outs[rng.Intn(len(outs))], c.Name, ins[rng.Intn(len(ins))])
	}
	return g
}

// TestStructureMatchesReference pins the compiled structure — node order,
// SCC membership and the cyclic set, the collapsed graph, the topological
// order, the stream index — and the analysis and synthesis that read it to
// the map-keyed reference oracle, on randomized layered and cyclic graphs.
func TestStructureMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cyclic := 0
	for trial := 0; trial < 240; trial++ {
		g := randomCyclicGraph(rng)
		if trial%4 == 3 { // keep a share of plain layered DAGs
			g = randomLayeredGraph(rng, 2+rng.Intn(5), 1+rng.Intn(8))
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: invalid random graph: %v", trial, err)
		}
		if _, err := refAnalyze(g); err != nil {
			// A cycle nothing feeds collapses to a supernode without paths;
			// both sides must refuse it.
			if _, err2 := Analyze(g); err2 == nil || err2.Error() != err.Error() {
				t.Fatalf("trial %d: reference refuses the graph (%v), Analyze says %v", trial, err, err2)
			}
			continue
		}
		if err := diffReference(g); err != nil {
			t.Fatalf("trial %d: %v\ngraph:\n%s", trial, err, renderGraph(g))
		}
		if refCollapseSCCs(g) != g {
			cyclic++
		}
	}
	if cyclic < 100 {
		t.Errorf("only %d of the graphs had a cycle to collapse", cyclic)
	}
}

// stopAfter is a context that reports cancellation from its n-th Err call
// on: it cancels an Analyze pass part-way through.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n--; c.n < 0 {
		return context.Canceled
	}
	return nil
}

// TestIncrementalWorklistSeeding drives label edits through two engines
// over one random graph — one never interrupted, one whose passes are cut
// short and then resumed — and holds both to the reference after every
// edit. The edits exercise each way the work queue is seeded: the
// component's outputs on an annotation flip, the producing interface on a
// replication or seal change, the consumers on a label change, and what a
// cancelled pass leaves queued. Interrupting a pass must change nothing the
// next completed pass reports.
func TestIncrementalWorklistSeeding(t *testing.T) {
	anns := []core.Annotation{core.CR, core.CW, core.ORStar(), core.OWGate("k"), core.ORGate("j")}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomCyclicGraph(rng)
		if _, err := refAnalyze(g); err != nil {
			continue
		}
		engines := [2]*Incremental{NewIncremental(g.Clone()), NewIncremental(g.Clone())}
		for _, inc := range engines {
			if _, _, err := inc.Analyze(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 12; step++ {
			// One edit, drawn once and applied to both engines' graphs.
			comps, streams := g.Components(), g.Streams()
			comp := comps[rng.Intn(len(comps))].Name
			path, a := rng.Intn(8), anns[rng.Intn(len(anns))]
			stream := streams[rng.Intn(len(streams))].Name
			kind, rep, seal := rng.Intn(3), rng.Intn(2) == 0, rng.Intn(2) == 0
			var stats [2]Stats
			for e, inc := range engines {
				switch kind {
				case 0:
					c := inc.Graph().Lookup(comp)
					p := c.Paths[path%len(c.Paths)]
					c.SetPathAnn(p.From, p.To, a)
					inc.NoteAnnotationChange(comp)
				case 1:
					inc.Graph().Stream(stream).Rep = rep
					inc.NoteStreamChange(stream)
				default:
					s := inc.Graph().Stream(stream)
					s.Seal = fd.AttrSet{}
					if seal {
						s.Seal = fd.NewAttrSet("k")
					}
					inc.NoteStreamChange(stream)
				}
				// The second engine's pass is cut short, twice, at random
				// depths (unless its queue is shorter than the cut).
				ctxs := []context.Context{context.Background()}
				if e == 1 {
					ctxs = []context.Context{
						&stopAfter{context.Background(), rng.Intn(4)},
						&stopAfter{context.Background(), rng.Intn(4)},
						context.Background(),
					}
				}
				var (
					an  *Analysis
					st  Stats
					err error
				)
				for _, ctx := range ctxs {
					if an, st, err = inc.Analyze(ctx); err == nil {
						break
					}
				}
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				stats[e] = st
				fullEqual(t, fmt.Sprintf("seed %d step %d engine %d", seed, step, e), an, inc.Graph())
			}
			if fmt.Sprint(stats[0].Recomputed) != fmt.Sprint(stats[1].Recomputed) || stats[0].Rebuilt != stats[1].Rebuilt {
				t.Fatalf("seed %d step %d: interrupted engine reports %+v, uninterrupted %+v", seed, step, stats[1], stats[0])
			}
		}
	}
}

// TestMemoSurvivesRebuild: derivations follow their output interface, by
// name, across a structure rebuild — a tap added to one component leaves
// every other interface a memo hit.
func TestMemoSurvivesRebuild(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(randomLayeredGraph(rand.New(rand.NewSource(5)), 6, 8))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	inc.Graph().Sink("tap", "C02_03", "out")
	inc.NoteTopologyChange()
	a, stats, err := inc.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(stats.Recomputed); !stats.Rebuilt || n != 48 || stats.Reused != n {
		t.Errorf("after a tap: rebuilt=%v, %d recomputed, %d reused; want a full pass of 48 memo hits", stats.Rebuilt, n, stats.Reused)
	}
	fullEqual(t, "tap", a, inc.Graph())
}
