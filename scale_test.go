package blazes

// Scale tests drive the public API over generated topologies (blazes gen /
// blazes/topogen). Three tiers are wired in: the 1k tier runs the session
// differential contract (randomized mutations, session report ≡ fresh
// one-shot), the 10k tier is an end-to-end smoke of the full
// gen → parse → graph → analyze pipeline, and the 100k tier is the same
// smoke gated behind BLAZES_SCALE_FULL=1 so plain `go test ./...` stays
// fast. Determinism — the acceptance bar that equal seeds produce
// byte-identical reports — runs at every invocation, including -race.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"blazes/internal/dataflow"
	"blazes/internal/race"
	"blazes/topogen"
)

// openGenerated runs the full public pipeline on one generated topology and
// returns the parsed spec (for sessions) alongside the built graph.
func openGenerated(t testing.TB, components int, seed int64) (*Spec, *Graph) {
	t.Helper()
	res, err := topogen.Generate(topogen.Default(components, seed))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseSpec(res.Spec)
	if err != nil {
		t.Fatalf("generated spec failed to parse: %v", err)
	}
	g, err := spec.Graph(fmt.Sprintf("scale-%d-s%d", components, seed))
	if err != nil {
		t.Fatalf("generated spec failed to build: %v", err)
	}
	return spec, g
}

// TestScaleSessionDifferential runs the TestSessionDifferential contract at
// the 1k tier: sessions opened over generated 1000-component topologies,
// mutated with the same randomized mutator pool, must emit reports
// byte-identical to a fresh one-shot analysis after every step.
func TestScaleSessionDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("1k differential tier skipped under -short")
	}
	ctx := context.Background()
	muts := sessionMutators()

	const sequences = 3
	for seq := 0; seq < sequences; seq++ {
		spec, _ := openGenerated(t, 1000, int64(seq)+800)
		s, err := spec.OpenSession(fmt.Sprintf("scale-1k-%d", seq))
		if err != nil {
			t.Fatalf("seq %d: open: %v", seq, err)
		}

		rng := rand.New(rand.NewSource(int64(seq) + 1))
		serial := 0
		trace := []string{"open"}
		const steps = 3
		for step := 0; step <= steps; step++ {
			if step > 0 {
				trace = append(trace, muts[rng.Intn(len(muts))](t, rng, s, false, &serial))
			}
			got, err := s.Analyze(ctx)
			if err != nil {
				t.Fatalf("seq %d step %d (%v): session analyze: %v", seq, step, trace, err)
			}
			fresh, err := NewAnalyzer().Analyze(s.Graph())
			if err != nil {
				t.Fatalf("seq %d step %d (%v): fresh analyze: %v", seq, step, trace, err)
			}
			gotBytes := marshalWithoutDelta(t, got)
			wantBytes := marshalWithoutDelta(t, fresh.Report())
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("seq %d step %d (%v): session report differs from fresh analysis at 1k scale",
					seq, step, trace)
			}
		}
	}
}

// TestScaleUnknownStreamErrorBounded: the error for a stream name the graph
// does not declare names a few near misses, not all of a thousand-component
// graph's streams (at 10k components the full list was 187 KB, sorted under
// the session's lock and sent back as the 4xx body).
func TestScaleUnknownStreamErrorBounded(t *testing.T) {
	_, g := openGenerated(t, 1000, 8)
	s, err := OpenSession(g)
	if err != nil {
		t.Fatal(err)
	}
	real := g.Streams()[len(g.Streams())/2].Name
	typo := real + "x"
	_, buildErr := NewGraphBuilder("b").ComponentPath("C", "in", "out", CR).Source("s0", "C", "in").Sink("s1", "C", "out").
		Sink("s2", "C", "out").Sink("s3", "C", "out").Sink("s4", "C", "out").Sink("s5", "C", "out").
		Sink("s6", "C", "out").Sink("s7", "C", "out").Sink("s8", "C", "out").Seal("s9", "k").Build()
	for name, err := range map[string]error{
		"RemoveEdge":     s.RemoveEdge(typo),
		"SealStream":     s.SealStream(typo, "k"),
		"WithSealRepair": func() error { _, err := OpenSession(g, WithSealRepair(typo, "k")); return err }(),
		"Builder.Seal":   buildErr,
	} {
		if err == nil {
			t.Fatalf("%s: no error for an unknown stream", name)
		}
		msg := err.Error()
		if len(msg) >= 1024 {
			t.Errorf("%s: a %d-byte error, beginning %q", name, len(msg), msg[:200])
		}
		if !strings.Contains(msg, "more]") {
			t.Errorf("%s: error does not say how many streams it left out: %s", name, msg)
		}
		if name != "Builder.Seal" && !strings.Contains(msg, " "+real+" ") && !strings.Contains(msg, "["+real+" ") {
			t.Errorf("%s: error does not name the near miss %q: %s", name, real, msg)
		}
	}
}

// TestScaleReportDeterminism pins the acceptance criterion directly: two
// completely independent runs of the same seed — generate, parse, build,
// analyze, marshal — produce byte-identical report JSON. The test is cheap
// enough to run everywhere, so the -race suite pins it too.
func TestScaleReportDeterminism(t *testing.T) {
	run := func() (string, []byte) {
		res, err := topogen.Generate(topogen.Default(1500, 8))
		if err != nil {
			t.Fatal(err)
		}
		spec, err := ParseSpec(res.Spec)
		if err != nil {
			t.Fatal(err)
		}
		g, err := spec.Graph("determinism")
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewAnalyzer().Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		out, err := r.Report().MarshalIndent()
		if err != nil {
			t.Fatal(err)
		}
		return res.Spec, out
	}
	specA, repA := run()
	specB, repB := run()
	if specA != specB {
		t.Fatal("same seed generated different spec text")
	}
	if !bytes.Equal(repA, repB) {
		t.Fatal("same seed produced different report bytes")
	}
}

// TestScaleTiers smokes the 10k and 100k tiers end to end through the
// public API. The 100k tier takes tens of seconds, so it only runs when
// BLAZES_SCALE_FULL=1 (see EXPERIMENTS.md).
func TestScaleTiers(t *testing.T) {
	tiers := []struct {
		components int
		skip       string
	}{
		{10_000, ""},
		{100_000, "set BLAZES_SCALE_FULL=1 to run the 100k tier"},
	}
	for _, tier := range tiers {
		t.Run(fmt.Sprintf("%dk", tier.components/1000), func(t *testing.T) {
			if testing.Short() {
				t.Skip("scale tier skipped under -short")
			}
			if tier.skip != "" && os.Getenv("BLAZES_SCALE_FULL") == "" {
				t.Skip(tier.skip)
			}
			_, g := openGenerated(t, tier.components, 8)
			res, err := NewAnalyzer().Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report()
			if rep == nil || len(rep.Components) == 0 {
				t.Fatal("empty report at scale")
			}
			t.Logf("%d components: verdict %s (deterministic %v), %d streams reported",
				tier.components, res.Verdict(), res.Deterministic(), len(rep.Streams))
		})
	}
}

// TestScaleSynthesizeLinear: strategy synthesis reads each flagged
// component's input streams from the compiled index, so it grows with the
// graph, not with components × streams. At 16k components it must take
// less than 8× its time at 4k (the per-interface stream scans it replaced
// took 16×). A run takes milliseconds and the host changes speed between
// one second and the next, so the two sizes are timed in turn, twenty
// times, after a collection (no run pays for the set-up's garbage), and
// each keeps its fastest run.
func TestScaleSynthesizeLinear(t *testing.T) {
	if testing.Short() {
		t.Skip("scale tier skipped under -short")
	}
	analyze := func(components int) *dataflow.Analysis {
		_, g := openGenerated(t, components, 8)
		an, err := dataflow.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		return an
	}
	sizes := [2]*dataflow.Analysis{analyze(4000), analyze(16000)}
	best := [2]time.Duration{math.MaxInt64, math.MaxInt64}
	runtime.GC()
	for range 20 {
		for i, an := range sizes {
			start := time.Now()
			if len(dataflow.Synthesize(an, dataflow.SynthesisOptions{})) == 0 {
				t.Fatal("nothing to coordinate in a generated topology")
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	small, large := best[0], best[1]
	t.Logf("Synthesize: %v at 4k components, %v at 16k (×%.1f)", small, large, float64(large)/float64(small))
	if large >= 8*small {
		t.Errorf("Synthesize took %v at 16k components against %v at 4k: more than 8×", large, small)
	}
}

// TestSessionEditCostIndependentOfGraphSize is the session-level twin of
// internal/dataflow's TestLabelEditCostIndependentOfGraphSize and
// TestSynthesisCostIndependentOfGraphSize: flipping the annotation of one
// sink-side component and synthesizing allocates the same number of times
// in a 1k-component graph and in the same graph with 3k more components
// beside it, re-projects the one component the engine re-derived and shares
// every other entry of the previous report by address. What still grows with
// the graph is the size of one allocation, the copy of a list the changed
// entry goes into — and that is a list of addresses: the bytes one edit
// allocates grow by at most two words per report entry added (one for the
// copy, one of slack for size classes; a list of entries by value fails this
// several times over). The flipped component is the same in both, so its own
// entry costs the same.
func TestSessionEditCostIndependentOfGraphSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes what allocates")
	}
	ctx := context.Background()
	cost := func(padding int) editCost {
		_, g := openGenerated(t, 1000, 8)
		for i := range padding {
			name := fmt.Sprintf("pad%04d", i)
			g.Component(name).AddPath("in", "out", CR)
			g.Source(name+"-in", name, "in")
			g.Sink(name+"-out", name, "out")
		}
		s, err := OpenSession(g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Synthesize(ctx); err != nil {
			t.Fatal(err)
		}
		feedsOnlySinks := map[string]bool{}
		for _, st := range g.Streams() {
			if !st.IsSource() {
				if _, seen := feedsOnlySinks[st.FromComp]; !seen {
					feedsOnlySinks[st.FromComp] = true
				}
				feedsOnlySinks[st.FromComp] = feedsOnlySinks[st.FromComp] && st.IsSink()
			}
		}
		flips := [2]Annotation{OWStar(), CR}
		var prev *Report
		for _, leaf := range g.Components() {
			if !feedsOnlySinks[leaf.Name] || strings.HasPrefix(leaf.Name, "pad") {
				continue
			}
			edit := func(k int) *Report {
				if err := s.Annotate(leaf.Name, leaf.Paths[0].From, leaf.Paths[0].To, flips[k%2]); err != nil {
					t.Fatal(err)
				}
				rep, err := s.Synthesize(ctx)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			if edit(0); s.LastStats().Rebuilt {
				continue // on a gossip self-loop: the flip recompiles
			}
			prev = edit(1) // both derivations are memoized from here on
			k := 0
			return measureEdits(prev, 1, func() {
				rep := edit(k)
				k++
				projected := 0
				for i := range rep.Components {
					if rep.Components[i] != prev.Components[i] {
						projected++
					}
				}
				if got := rep.Delta.Recomputed; projected != 1 || len(got) != 1 || got[0] != leaf.Name {
					t.Fatalf("flipping %s beside %d components re-derived %v and re-projected %d entries", leaf.Name, padding, got, projected)
				}
				if &rep.Streams[0] != &prev.Streams[0] && len(rep.Delta.Streams) == 0 {
					t.Fatalf("flipping %s beside %d components copied the stream list with no label changed", leaf.Name, padding)
				}
				prev = rep
			})
		}
		t.Fatal("no acyclic sink-side component")
		return editCost{}
	}
	c1, c4 := cost(0), cost(3000)
	if c1.allocs != c4.allocs {
		t.Errorf("a sink-side flip and Synthesize allocates %.0f times at 1k components but %.0f at 4k", c1.allocs, c4.allocs)
	}
	c1.holdGrowth(t, "a sink-side flip and Synthesize", c4)
}

// editCost is what one session edit and its Synthesize allocate, in a
// session whose report has so many entries in its two lists.
type editCost struct {
	allocs, bytes float64
	entries       int
}

// measureEdits runs round, which makes so many edits to the session rep came
// from, under testing.AllocsPerRun and then between two readings of
// runtime.MemStats.TotalAlloc.
func measureEdits(rep *Report, edits int, round func()) editCost {
	c := editCost{entries: len(rep.Streams) + len(rep.Components)}
	c.allocs = testing.AllocsPerRun(10, round)
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&after)
	c.bytes = float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*edits)
	return c
}

// holdGrowth fails when an edit in the larger session allocates more bytes
// than one in the smaller by over two words per entry the larger report has
// more.
func (small editCost) holdGrowth(t *testing.T, what string, large editCost) {
	t.Helper()
	added := large.entries - small.entries
	grew, bound := large.bytes-small.bytes, float64(added)*2*bits.UintSize/8
	t.Logf("%s allocates %.0f B with %d report entries and %.0f B with %d: %.1f B per added entry", what, small.bytes, small.entries, large.bytes, large.entries, grew/float64(added))
	if added <= 0 || grew > bound {
		t.Errorf("%s allocates %.0f B with %d report entries but %.0f B with %d: %.0f B more, over the %.0f B of two words per added entry",
			what, small.bytes, small.entries, large.bytes, large.entries, grew, bound)
	}
}

// TestSessionTapCostIndependentOfGraphSize is that test for the topology
// edit the structure is patched for: wiring a sink tap onto a component
// outside every cycle and synthesizing, then dropping it and synthesizing,
// allocates the same number of times at 1k components and with 3k more
// beside them; both passes report Patched, share the component list whole
// and, by address, every stream entry but the spliced one with the report
// before, and carry the one Delta.Streams entry. What grows with the graph
// is, again, the size of one allocation — the copy of the stream list's
// addresses — and it is held to the same two words per added entry. A tap on
// a component inside a cycle recompiles.
func TestSessionTapCostIndependentOfGraphSize(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes what allocates")
	}
	ctx := context.Background()
	cost := func(padding int) editCost {
		_, g := openGenerated(t, 1000, 8)
		for i := range padding {
			name := fmt.Sprintf("pad%04d", i)
			g.Component(name).AddPath("in", "out", CR)
			g.Source(name+"-in", name, "in")
			g.Sink(name+"-out", name, "out")
		}
		s, err := OpenSession(g)
		if err != nil {
			t.Fatal(err)
		}
		prev, err := s.Synthesize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		// step wires or drops the tap, synthesizes and holds the report to
		// the one before it; thorough also walks the stream entries.
		step := func(comp *Component, connect, thorough bool) SessionStats {
			if connect {
				err = s.Connect("m-tap", comp.Name+"."+comp.Outputs()[0], "")
			} else {
				err = s.RemoveEdge("m-tap")
			}
			if err != nil {
				t.Fatal(err)
			}
			rep, err := s.Synthesize(ctx)
			if err != nil {
				t.Fatal(err)
			}
			stats := s.LastStats()
			if !stats.Rebuilt {
				t.Fatalf("a topology edit on %s reports no rebuild", comp.Name)
			}
			if !stats.Patched {
				prev = rep
				return stats
			}
			d := rep.Delta.Streams
			if len(d) != 1 || d[0].Name != "m-tap" || (d[0].After.Kind != "") != connect || (d[0].Before.Kind != "") == connect {
				t.Fatalf("tap on %s beside %d components (connect=%v): delta streams %+v", comp.Name, padding, connect, d)
			}
			if &rep.Components[0] != &prev.Components[0] || len(rep.Delta.Recomputed) != 0 {
				t.Fatalf("tap on %s beside %d components: re-derived %v, component list copied: %v", comp.Name, padding, rep.Delta.Recomputed, &rep.Components[0] != &prev.Components[0])
			}
			if thorough {
				longer, shorter := rep.Streams, prev.Streams
				if !connect {
					longer, shorter = shorter, longer
				}
				if len(longer) != len(shorter)+1 {
					t.Fatalf("tap on %s: %d streams after %d", comp.Name, len(rep.Streams), len(prev.Streams))
				}
				for i, j := 0, 0; i < len(longer); i++ {
					if longer[i].Name == "m-tap" {
						continue
					}
					if longer[i] != shorter[j] {
						t.Fatalf("tap on %s: stream entry %s projected again", comp.Name, longer[i].Name)
					}
					j++
				}
			}
			prev = rep
			return stats
		}
		onSelfLoop := map[string]bool{}
		for _, st := range g.Streams() {
			if st.FromComp != "" && st.FromComp == st.ToComp {
				onSelfLoop[st.FromComp] = true
			}
		}
		measured, cyclic := false, false
		var c editCost
		for _, comp := range g.Components() {
			switch {
			case onSelfLoop[comp.Name] && !cyclic:
				cyclic = true
				if stats := step(comp, true, false); stats.Patched {
					t.Errorf("a tap on %s, on a gossip self-loop, was patched in", comp.Name)
				}
				if stats := step(comp, false, false); stats.Patched {
					t.Errorf("the tap on %s, on a gossip self-loop, was patched out", comp.Name)
				}
			case !onSelfLoop[comp.Name] && !measured && !strings.HasPrefix(comp.Name, "pad"):
				if stats := step(comp, true, true); !stats.Patched {
					step(comp, false, false) // inside a longer cycle
					continue
				}
				step(comp, false, true)
				c, measured = measureEdits(prev, 2, func() {
					step(comp, true, false)
					step(comp, false, false)
				}), true
			}
		}
		if !measured || !cyclic {
			t.Fatalf("no component to tap outside every cycle (%v) or none on a self-loop (%v)", !measured, !cyclic)
		}
		return c
	}
	c1, c4 := cost(0), cost(3000)
	t.Logf("a tap wired, synthesized, dropped and synthesized allocates %.0f times", c1.allocs)
	if c1.allocs != c4.allocs {
		t.Errorf("a tap wired, synthesized, dropped and synthesized allocates %.0f times at 1k components but %.0f at 4k", c1.allocs, c4.allocs)
	}
	c1.holdGrowth(t, "a tap wired or dropped, and Synthesize,", c4)
}
