package dataflow

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"slices"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// randomCyclicGraph builds a random layered graph with everything the
// structure builder has to get right: components with several input and
// output interfaces, replicated components and streams, sealed sources,
// schemas, pre-coordinated components, gossip
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
			if rng.Intn(12) == 0 {
				c.Coordination = Coordination(1 + rng.Intn(5))
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

// structureDiff describes the first field in which the standing structure
// got differs from want, a fresh compile of the same graph: the streams and
// the components the collapse shares with the graph by pointer, its own
// copies by value, every index by value.
func structureDiff(got, want *structure) error {
	if got.g != want.g || (got.collapsed == got.g) != (want.collapsed == want.g) {
		return fmt.Errorf("graph or collapsed graph is another")
	}
	if len(got.cyclic) != len(want.cyclic) || len(want.cyclic) > 0 && !reflect.DeepEqual(got.cyclic, want.cyclic) {
		return fmt.Errorf("cyclic: %v, want %v", got.cyclic, want.cyclic)
	}
	if g, w := renderGraph(got.collapsed), renderGraph(want.collapsed); g != w {
		return fmt.Errorf("collapsed graph:\n%s\nwant:\n%s", g, w)
	}
	if !reflect.DeepEqual(got.collapsed.byName, want.collapsed.byName) {
		return fmt.Errorf("collapsed graph's name index differs")
	}
	for i, s := range got.collapsed.streams {
		if s != got.streams[i] || got.collapsed.byName[s.Name] != s {
			return fmt.Errorf("collapsed stream %d (%s) is not the table's or not the name index's", i, s.Name)
		}
	}
	if !reflect.DeepEqual(got.comps, want.comps) || !reflect.DeepEqual(got.streams, want.streams) {
		return fmt.Errorf("components or streams differ by value")
	}
	for i, s := range want.streams {
		if s == want.g.Stream(s.Name) && got.streams[i] != s {
			return fmt.Errorf("stream %d (%s) is a copy of the graph's", i, s.Name)
		}
	}
	if !slices.Equal(got.nodeIface, want.nodeIface) || !slices.Equal(got.nodeOut, want.nodeOut) {
		return fmt.Errorf("interface nodes differ")
	}
	ints := []struct {
		name      string
		got, want []int32
	}{
		{"compStart", got.compStart, want.compStart}, {"nodeComp", got.nodeComp, want.nodeComp},
		{"pathOff", got.pathOff, want.pathOff}, {"pathIn", got.pathIn, want.pathIn}, {"pathOut", got.pathOut, want.pathOut},
		{"from", got.from, want.from}, {"to", got.to, want.to},
		{"succ.off", got.succ.off, want.succ.off}, {"succ.val", got.succ.val, want.succ.val},
		{"into.off", got.into.off, want.into.off}, {"into.val", got.into.val, want.into.val},
		{"outOf.off", got.outOf.off, want.outOf.off}, {"outOf.val", got.outOf.val, want.outOf.val},
		{"feed.off", got.feed.off, want.feed.off}, {"feed.val", got.feed.val, want.feed.val},
		{"order", got.order, want.order}, {"rank", got.rank, want.rank},
		{"outRanks.off", got.outRanks.off, want.outRanks.off}, {"outRanks.val", got.outRanks.val, want.outRanks.val},
		{"byName", got.byName, want.byName}, {"namePos", got.namePos, want.namePos},
		{"verdictOver", got.verdictOver, want.verdictOver},
	}
	for _, f := range ints {
		if !slices.Equal(f.got, f.want) {
			return fmt.Errorf("%s = %v, want %v", f.name, f.got, f.want)
		}
	}
	return nil
}

// TestPatchedStructureIsCompiled: whatever taps come and go, between
// whatever label edits and cancelled passes, the structure the engine keeps
// standing is field for field the one compile builds for the graph, the
// analysis and the synthesis over it are the one-shot ones, and an engine
// whose passes are cut short reports what an uninterrupted one does. The
// edits are sink taps and source taps (beside an existing stream, and onto an
// input nothing feeds), on components outside and — falling back to a
// compile — inside cycles, removals of taps and of the graph's own sources
// and sinks from the middle of the declaration order (the last sink going
// turns the verdict over to every stream), annotation, seal and replication
// flips, one to three per pass. The blocking tier draws 80 graphs;
// BLAZES_SCALE_FULL draws 800.
func TestPatchedStructureIsCompiled(t *testing.T) {
	anns := []core.Annotation{core.CR, core.CW, core.ORStar(), core.OWGate("k"), core.ORGate("j")}
	type edit func(g *Graph, inc *Incremental) // inc is nil on a dry run
	seeds := int64(80)
	if os.Getenv("BLAZES_SCALE_FULL") != "" {
		seeds = 800
	}
	patchedPasses, fellBack, verdictTurns := 0, 0, 0
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomCyclicGraph(rng)
		if seed%4 == 3 {
			g = randomLayeredGraph(rng, 2+rng.Intn(4), 1+rng.Intn(5))
		}
		for _, c := range g.Components() {
			if rng.Intn(4) == 0 {
				c.AddPath("spare", c.Outputs()[0], anns[rng.Intn(len(anns))]) // an input nothing feeds
			}
		}
		if _, err := refAnalyze(g); err != nil {
			continue
		}
		engines := [2]*Incremental{NewIncremental(g.Clone()), NewIncremental(g.Clone())}
		for _, inc := range engines {
			if _, _, err := inc.Analyze(context.Background()); err != nil {
				t.Fatal(err)
			}
			inc.Synthesize(SynthesisOptions{})
		}
		// names is each engine's stream list, in name order, as its last
		// completed pass left it: Stats.Splices must turn it into the next.
		streamList := func(a *Analysis) (names []string) {
			for s := range a.Streams() {
				names = append(names, s.Name)
			}
			return names
		}
		names := [2][]string{streamList(engines[0].a), streamList(engines[1].a)}
		taps := 0
		draw := func() edit {
			g := engines[0].Graph()
			comps, streams := g.Components(), g.Streams()
			c := comps[rng.Intn(len(comps))]
			switch kind := rng.Intn(7); kind {
			case 0:
				p, a := c.Paths[rng.Intn(len(c.Paths))], anns[rng.Intn(len(anns))]
				return func(g *Graph, inc *Incremental) {
					g.Lookup(c.Name).SetPathAnn(p.From, p.To, a)
					if inc != nil {
						inc.NoteAnnotationChange(c.Name)
					}
				}
			case 1:
				name, rep, seal := streams[rng.Intn(len(streams))].Name, rng.Intn(2) == 0, rng.Intn(2) == 0
				return func(g *Graph, inc *Incremental) {
					s := g.Stream(name)
					s.Rep, s.Seal = rep, fd.AttrSet{}
					if seal {
						s.Seal = fd.NewAttrSet("k")
					}
					if inc != nil {
						inc.NoteStreamChange(name)
					}
				}
			case 2, 3: // a sink tap, now and then replicated; names sort all over the list
				taps++
				name, out, rep := fmt.Sprintf("%c-tap%03d", "aest"[rng.Intn(4)], taps), c.Outputs()[rng.Intn(len(c.Outputs()))], rng.Intn(4) == 0
				return func(g *Graph, inc *Incremental) {
					g.Sink(name, c.Name, out).Rep = rep
					if inc != nil {
						inc.NoteStreamAdded(name)
					}
				}
			case 4: // a source tap, now and then sealed
				taps++
				name, in, seal := fmt.Sprintf("%c-tap%03d", "aest"[rng.Intn(4)], taps), c.Inputs()[rng.Intn(len(c.Inputs()))], rng.Intn(2) == 0
				return func(g *Graph, inc *Incremental) {
					s := g.Source(name, c.Name, in)
					if seal {
						s.Seal = fd.NewAttrSet("k")
					}
					if inc != nil {
						inc.NoteStreamAdded(name)
					}
				}
			default: // remove a stream with an external end
				var external []string
				for _, s := range streams {
					if s.IsSource() || s.IsSink() {
						external = append(external, s.Name)
					}
				}
				if len(external) == 0 {
					return func(*Graph, *Incremental) {}
				}
				name := external[rng.Intn(len(external))]
				return func(g *Graph, inc *Incremental) {
					g.RemoveStream(name)
					if inc != nil {
						inc.NoteStreamRemoved(name)
					}
				}
			}
		}
		for step := 0; step < 14; step++ {
			overSinks := engines[0].st.verdictOverSinks()
			var edits []edit
			for n := 1 + rng.Intn(3); n > 0; n-- {
				// An edit the reference refuses (a cycle left with nothing to
				// feed it) is not made.
				ed, dry := draw(), engines[0].Graph().Clone()
				ed(dry, nil)
				if _, err := refAnalyze(dry); err == nil {
					edits = append(edits, ed)
					ed(engines[0].Graph(), engines[0])
				}
			}
			cuts := [3]int{rng.Intn(3), rng.Intn(4), rng.Intn(4)}
			var stats [2]Stats
			for e, inc := range engines {
				tag := fmt.Sprintf("seed %d step %d engine %d", seed, step, e)
				held := func(when string) {
					t.Helper()
					if inc.topoDirty {
						return // to be compiled by the next pass
					}
					want, err := compile(inc.Graph())
					if err != nil {
						t.Fatalf("%s: %s: %v", tag, when, err)
					}
					if err := structureDiff(inc.st, want); err != nil {
						t.Fatalf("%s: %s: %v\ngraph:\n%s", tag, when, err, renderGraph(inc.Graph()))
					}
				}
				ctxs := []context.Context{context.Background()}
				if e == 1 {
					for i, ed := range edits {
						ed(inc.Graph(), inc)
						// A pass cut short between two edits — inside its queue, so
						// that it cannot complete and report.
						if n := len(inc.work); i == cuts[0] && (inc.topoDirty || n > 0) {
							cut := 0
							if !inc.topoDirty {
								cut = cuts[1] % n
							}
							if _, _, err := inc.Analyze(&stopAfter{context.Background(), cut}); err == nil {
								t.Fatalf("%s: a pass cut after %d of %d interfaces completed", tag, cut, n)
							}
						}
					}
					ctxs = []context.Context{&stopAfter{context.Background(), cuts[2]}, context.Background()}
				}
				held("after the edits")
				var (
					an  *Analysis
					err error
				)
				for _, ctx := range ctxs {
					if an, stats[e], err = inc.Analyze(ctx); err == nil {
						break
					}
				}
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				held("after the pass")
				fullEqual(t, tag, an, inc.Graph())
				// The splices, replayed on the previous list with a blank for
				// each stream that came, and the listed positions filled in.
				now := streamList(an)
				if !stats[e].Rebuilt {
					for _, sp := range stats[e].Splices {
						if sp.Added {
							names[e] = slices.Insert(names[e], int(sp.Pos), "")
						} else {
							names[e] = slices.Delete(names[e], int(sp.Pos), int(sp.Pos)+1)
						}
					}
					for _, pos := range stats[e].Streams {
						names[e][pos] = now[pos]
					}
					if !slices.Equal(names[e], now) {
						t.Fatalf("%s: splices %v and changed positions %v turn the previous stream list into\n%q, the analysis has\n%q", tag, stats[e].Splices, stats[e].Streams, names[e], now)
					}
				}
				names[e] = now
				fresh, err := Analyze(inc.Graph().Clone())
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if got, want := fmt.Sprint(inc.Synthesize(SynthesisOptions{})), fmt.Sprint(Synthesize(fresh, SynthesisOptions{})); got != want {
					t.Fatalf("%s: synthesis over the standing structure: %s, one-shot: %s", tag, got, want)
				}
			}
			if !reflect.DeepEqual(stats[0].Recomputed, stats[1].Recomputed) || stats[0].Rebuilt != stats[1].Rebuilt ||
				!slices.Equal(stats[0].Splices, stats[1].Splices) || !slices.Equal(stats[0].Components, stats[1].Components) || !slices.Equal(stats[0].Streams, stats[1].Streams) {
				t.Fatalf("seed %d step %d: interrupted engine reports %+v, uninterrupted %+v", seed, step, stats[1], stats[0])
			}
			switch {
			case len(stats[0].Splices) > 0:
				patchedPasses++
				if engines[0].st.verdictOverSinks() != overSinks {
					verdictTurns++ // the last sink patched out, or a first one in
				}
			case stats[0].Rebuilt:
				fellBack++
			}
		}
	}
	t.Logf("%d passes over a patched structure (%d turned the verdict to or from the sinks), %d over a recompiled one", patchedPasses, verdictTurns, fellBack)
	// A suite that always fell back, or never did, proves nothing.
	if patchedPasses < 100 || fellBack < 20 || verdictTurns < 5 {
		t.Errorf("the edits missed their targets: %d patched passes, %d verdict turns, %d recompiled", patchedPasses, verdictTurns, fellBack)
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
