package blazes

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// cyclicTopology builds a two-component interface-level cycle (A↔B): the
// collapse folds both into the "scc+A+B" supernode, whose name and
// member-qualified interfaces ("B.out") contain dots — the shape that
// exercises the supernode paths of the incremental engine and the
// session's report reuse.
func cyclicTopology(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraphBuilder("gossip-pair").
		ComponentPath("A", "in", "out", CW).
		ComponentPath("B", "in", "out", OWGate("k")).
		Source("src", "A", "in").
		Stream("ab", "A", "out", "B", "in").
		Stream("ba", "B", "out", "A", "in").
		Sink("snk", "B", "out").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// replicatedCyclicTopology puts the A↔B supernode between an upstream and
// a downstream component, with replicated streams into, out of and past
// it: annotation flips on Up and Down land next to the supernode, and seal
// flips on the replicated streams change what the producing interface
// derives, not just what the consumers read.
func replicatedCyclicTopology(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraphBuilder("replicated-gossip").
		ComponentPath("Up", "in", "out", CR).
		ComponentPath("A", "in", "out", CW).
		ComponentPath("B", "in", "out", OWGate("k")).
		ComponentPath("Down", "in", "out", ORGate("k")).
		Source("src", "Up", "in").Seal("src", "k").
		Stream("feed", "Up", "out", "A", "in").Replicate("feed").
		Stream("ab", "A", "out", "B", "in").
		Stream("ba", "B", "out", "A", "in").Replicate("ba").
		Stream("drain", "B", "out", "Down", "in").Replicate("drain").
		Sink("snk", "Down", "out").Replicate("snk").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// stopAfter is a context that reports cancellation from its n-th Err call
// on: it cuts an analysis pass short part-way through.
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

// mutator applies one random valid mutation to the session and returns a
// description of what it did.
type mutator func(t *testing.T, rng *rand.Rand, s *Session, specBacked bool, serial *int) string

func randAttrs(rng *rand.Rand) []string {
	pool := []string{"batch", "word", "campaign", "id", "window"}
	n := 1 + rng.Intn(2)
	out := make([]string, 0, n)
	for len(out) < n {
		out = append(out, pool[rng.Intn(len(pool))])
	}
	return out
}

func randAnn(rng *rand.Rand) Annotation {
	switch rng.Intn(6) {
	case 0:
		return CR
	case 1:
		return CW
	case 2:
		return ORGate(randAttrs(rng)...)
	case 3:
		return OWGate(randAttrs(rng)...)
	case 4:
		return ORStar()
	default:
		return OWStar()
	}
}

func sessionMutators() []mutator {
	return []mutator{
		// Annotate a random existing path.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, _ *int) string {
			g := s.Graph()
			comps := g.Components()
			c := comps[rng.Intn(len(comps))]
			p := c.Paths[rng.Intn(len(c.Paths))]
			ann := randAnn(rng)
			if err := s.Annotate(c.Name, p.From, p.To, ann); err != nil {
				t.Fatalf("Annotate(%s, %s, %s): %v", c.Name, p.From, p.To, err)
			}
			return fmt.Sprintf("annotate %s.%s→%s %s", c.Name, p.From, p.To, ann)
		},
		// Seal or unseal a random stream.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, _ *int) string {
			g := s.Graph()
			streams := g.Streams()
			st := streams[rng.Intn(len(streams))]
			if rng.Intn(3) == 0 {
				if err := s.SealStream(st.Name); err != nil {
					t.Fatalf("unseal %s: %v", st.Name, err)
				}
				return "unseal " + st.Name
			}
			key := randAttrs(rng)
			if err := s.SealStream(st.Name, key...); err != nil {
				t.Fatalf("seal %s: %v", st.Name, err)
			}
			return fmt.Sprintf("seal %s on %v", st.Name, key)
		},
		// Tap a random output interface into a new external sink.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, serial *int) string {
			g := s.Graph()
			comps := g.Components()
			c := comps[rng.Intn(len(comps))]
			outs := c.Outputs()
			iface := outs[rng.Intn(len(outs))]
			*serial++
			name := fmt.Sprintf("tap%d", *serial)
			if err := s.Connect(name, c.Name+"."+iface, ""); err != nil {
				t.Fatalf("Connect(%s): %v", name, err)
			}
			return "tap " + c.Name + "." + iface
		},
		// Add an auditing component fed by a random output interface.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, serial *int) string {
			g := s.Graph()
			comps := g.Components()
			c := comps[rng.Intn(len(comps))]
			outs := c.Outputs()
			iface := outs[rng.Intn(len(outs))]
			*serial++
			name := fmt.Sprintf("Aux%d", *serial)
			if err := s.AddComponent(name, Path("in", "out", randAnn(rng))); err != nil {
				t.Fatalf("AddComponent(%s): %v", name, err)
			}
			if err := s.Connect(fmt.Sprintf("aux-in%d", *serial), c.Name+"."+iface, name+".in"); err != nil {
				t.Fatalf("Connect aux-in: %v", err)
			}
			if err := s.Connect(fmt.Sprintf("aux-out%d", *serial), name+".out", ""); err != nil {
				t.Fatalf("Connect aux-out: %v", err)
			}
			return "add component " + name
		},
		// Remove a previously added tap (or skip when none exists).
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, _ *int) string {
			g := s.Graph()
			var taps []string
			for _, st := range g.Streams() {
				if len(st.Name) > 3 && st.Name[:3] == "tap" {
					taps = append(taps, st.Name)
				}
			}
			if len(taps) == 0 {
				return "noop"
			}
			name := taps[rng.Intn(len(taps))]
			if err := s.RemoveEdge(name); err != nil {
				t.Fatalf("RemoveEdge(%s): %v", name, err)
			}
			return "remove " + name
		},
		// Cut an analysis pass short: whatever it re-derived and whatever it
		// left queued must carry over into the next complete analysis.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, _ *int) string {
			n := rng.Intn(3)
			if _, err := s.Analyze(&stopAfter{context.Background(), n}); err == nil {
				return "noop"
			}
			return fmt.Sprintf("analysis cancelled after %d interfaces", n)
		},
		// Re-select a spec variant (spec-backed sessions only).
		func(t *testing.T, rng *rand.Rand, s *Session, specBacked bool, _ *int) string {
			if !specBacked {
				return "noop"
			}
			variants := []string{"THRESH", "POOR", "WINDOW", "CAMPAIGN"}
			v := variants[rng.Intn(len(variants))]
			if err := s.SetVariant("Report", v); err != nil {
				t.Fatalf("SetVariant(%s): %v", v, err)
			}
			return "variant Report=" + v
		},
		// Tap a new external source into a random input interface, beside
		// whatever feeds it already.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, serial *int) string {
			g := s.Graph()
			comps := g.Components()
			c := comps[rng.Intn(len(comps))]
			ins := c.Inputs()
			iface := ins[rng.Intn(len(ins))]
			*serial++
			name := fmt.Sprintf("tap%d", *serial)
			if err := s.Connect(name, "", c.Name+"."+iface); err != nil {
				t.Fatalf("Connect(%s): %v", name, err)
			}
			if rng.Intn(2) == 0 {
				if err := s.SealStream(name, randAttrs(rng)...); err != nil {
					t.Fatalf("seal %s: %v", name, err)
				}
			}
			return "source tap " + c.Name + "." + iface
		},
		// Remove a tap (wiring one first when there is none) and wire one of
		// the same name elsewhere, all between two analyses: both reports
		// have the name, with other endpoints.
		func(t *testing.T, rng *rand.Rand, s *Session, _ bool, serial *int) string {
			g := s.Graph()
			comps := g.Components()
			c := comps[rng.Intn(len(comps))]
			outs := c.Outputs()
			to := c.Name + "." + outs[rng.Intn(len(outs))]
			var taps []string
			for _, st := range g.Streams() {
				if strings.HasPrefix(st.Name, "tap") {
					taps = append(taps, st.Name)
				}
			}
			if len(taps) == 0 {
				*serial++
				taps = []string{fmt.Sprintf("tap%d", *serial)}
				if err := s.Connect(taps[0], comps[0].Name+"."+comps[0].Outputs()[0], ""); err != nil {
					t.Fatalf("Connect(%s): %v", taps[0], err)
				}
			}
			name := taps[rng.Intn(len(taps))]
			if err := s.RemoveEdge(name); err != nil {
				t.Fatalf("RemoveEdge(%s): %v", name, err)
			}
			if err := s.Connect(name, to, ""); err != nil {
				t.Fatalf("Connect(%s) again: %v", name, err)
			}
			return "re-wire " + name + " to " + to
		},
	}
}

// TestSessionDifferential is the tentpole acceptance check: across ≥150
// randomized mutation sequences, every Session.Analyze (and, on a subset,
// Synthesize) emits bytes identical to a fresh one-shot analysis of the
// equivalent graph, modulo the Delta section a one-shot report cannot have.
func TestSessionDifferential(t *testing.T) {
	const sequences = 192
	ctx := context.Background()
	muts := sessionMutators()

	for seq := 0; seq < sequences; seq++ {
		rng := rand.New(rand.NewSource(int64(seq) + 1))
		var (
			s          *Session
			specBacked bool
			err        error
		)
		switch seq % 6 {
		case 0:
			s, err = OpenSession(WordcountTopology(rng.Intn(2) == 0))
		case 1:
			s, err = OpenSession(adSpecGraph(t, CAMPAIGN, "campaign"))
		case 2:
			s, err = loadSpec(t, "wordcount.blazes").OpenSession("wordcount")
		case 3:
			s, err = OpenSession(cyclicTopology(t)) // supernode path
		case 4:
			s, err = OpenSession(replicatedCyclicTopology(t)) // edits next to a supernode
		default:
			specBacked = true
			s, err = loadSpec(t, "adreport.blazes").OpenSession("adreport",
				WithVariant("Report", "CAMPAIGN"), WithSealRepair("clicks", "campaign"))
		}
		if err != nil {
			t.Fatalf("seq %d: open: %v", seq, err)
		}

		serial := 0
		steps := 1 + rng.Intn(6)
		trace := []string{"open"}
		for step := 0; step <= steps; step++ {
			if step > 0 {
				trace = append(trace, muts[rng.Intn(len(muts))](t, rng, s, specBacked, &serial))
			}
			synth := rng.Intn(3) == 0
			got, err := analyzeCheckingDelta(ctx, s, synth)
			if err != nil {
				t.Fatalf("seq %d step %d (%v): session analyze: %v", seq, step, trace, err)
			}

			// Fresh one-shot analysis of the equivalent graph.
			analyzer := NewAnalyzer()
			var fresh *Result
			if synth {
				fresh, err = analyzer.Synthesize(s.Graph())
			} else {
				fresh, err = analyzer.Analyze(s.Graph())
			}
			if err != nil {
				t.Fatalf("seq %d step %d (%v): fresh analyze: %v", seq, step, trace, err)
			}

			gotBytes := marshalWithoutDelta(t, got)
			wantBytes := marshalWithoutDelta(t, fresh.Report())
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("seq %d step %d (%v): session report differs from fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s",
					seq, step, trace, gotBytes, wantBytes)
			}
		}
	}
}

// analyzeCheckingDelta is s.Analyze or s.Synthesize with the report's Delta
// held to the oracle: computeDelta's diff by name of the session's previous
// report and this one, both whole. The oracle knows nothing of how either
// report was built, so it checks a patched and a projected report alike.
// The session reports the pass's own figures (the components it re-derived,
// the derivations it reused) the same way on every path, so the oracle is
// given those.
func analyzeCheckingDelta(ctx context.Context, s *Session, synth bool) (*Report, error) {
	prev, prevSynth, since := s.prev, s.prevSynth, s.seq
	got, err := s.analyze(ctx, synth)
	if err != nil {
		return nil, err
	}
	if prev == nil {
		if got.Delta != nil {
			return nil, fmt.Errorf("a first report carries a delta")
		}
		return got, nil
	}
	if got.Delta == nil {
		return nil, fmt.Errorf("report %d carries no delta", since)
	}
	want := computeDelta(prev, got, got.Delta.Recomputed, s.LastStats().Reused, since, prevSynth && synth)
	if !reflect.DeepEqual(got.Delta, want) {
		g, _ := json.Marshal(got.Delta)
		w, _ := json.Marshal(want)
		return nil, fmt.Errorf("delta differs from the diff of the two reports\n--- session ---\n%s\n--- diff ---\n%s", g, w)
	}
	return got, nil
}

// computeDelta diffs two consecutive session reports: the streams whose
// label changed, came or went, the verdict, and, when strategies is set,
// the strategies, each in name order. recomputed and reused are the pass's
// own figures, which neither report shows.
func computeDelta(prev, cur *Report, recomputed []string, reused, since int, strategies bool) *Delta {
	sameLabel := func(a, b LabelReport) bool {
		return a.Kind == b.Kind && a.Severity == b.Severity && slices.Equal(a.Key, b.Key)
	}
	d := &Delta{Since: since, Reused: reused}
	if len(recomputed) > 0 {
		d.Recomputed = recomputed
	}
	if !sameLabel(prev.Verdict, cur.Verdict) {
		d.Verdict = &VerdictDelta{Before: prev.Verdict, After: cur.Verdict}
	}

	before := map[string]LabelReport{}
	for _, sr := range prev.Streams {
		before[sr.Name] = sr.Label
	}
	for _, sr := range cur.Streams {
		if l, ok := before[sr.Name]; !ok {
			d.Streams = append(d.Streams, StreamDelta{Name: sr.Name, After: sr.Label})
		} else if !sameLabel(l, sr.Label) {
			d.Streams = append(d.Streams, StreamDelta{Name: sr.Name, Before: l, After: sr.Label})
		}
		delete(before, sr.Name)
	}
	for name, l := range before {
		d.Streams = append(d.Streams, StreamDelta{Name: name, Before: l})
	}
	slices.SortFunc(d.Streams, func(a, b StreamDelta) int { return strings.Compare(a.Name, b.Name) })

	if strategies {
		plans := map[string][2]*StrategyReport{}
		for i, list := range [][]StrategyReport{prev.Strategies, cur.Strategies} {
			for _, sr := range list {
				p := plans[sr.Component]
				p[i] = &sr
				plans[sr.Component] = p
			}
		}
		for name, p := range plans {
			if p[0] == nil || p[1] == nil || !reflect.DeepEqual(*p[0], *p[1]) {
				d.Strategies = append(d.Strategies, StrategyDelta{Component: name, Before: p[0], After: p[1]})
			}
		}
		slices.SortFunc(d.Strategies, func(a, b StrategyDelta) int { return strings.Compare(a.Component, b.Component) })
	}
	return d
}

func marshalWithoutDelta(t *testing.T, rep *Report) []byte {
	t.Helper()
	clone := *rep
	clone.Delta = nil
	out, err := clone.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSessionDelta: the second analysis carries a delta describing the flip.
func TestSessionDelta(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(WordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if first.Delta != nil {
		t.Fatal("first analysis must not carry a delta")
	}

	if err := s.SealStream("tweets", "batch"); err != nil {
		t.Fatal(err)
	}
	second, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	d := second.Delta
	if d == nil {
		t.Fatal("second analysis must carry a delta")
	}
	if d.Since != 1 {
		t.Errorf("Since = %d, want 1", d.Since)
	}
	if len(d.Streams) == 0 {
		t.Error("sealing tweets changed no stream labels?")
	}
	found := false
	for _, sd := range d.Streams {
		if sd.Name == "tweets" && sd.After.Kind == "Seal" {
			found = true
		}
	}
	if !found {
		t.Errorf("delta streams %v missing tweets → Seal", d.Streams)
	}
	if d.Verdict == nil {
		t.Error("sealing the wordcount changes the verdict (Diverge → Async)")
	}
	if len(d.Strategies) == 0 {
		t.Error("sealing changes the synthesized strategies")
	}
	if len(d.Recomputed) == 0 {
		t.Error("delta must name the recomputed components")
	}

	// A no-op re-analysis yields an empty (but present) delta.
	third, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if third.Delta == nil {
		t.Fatal("third analysis must carry a delta")
	}
	if len(third.Delta.Streams) != 0 || third.Delta.Verdict != nil || len(third.Delta.Recomputed) != 0 {
		t.Errorf("no-op delta not empty: %+v", third.Delta)
	}
}

// TestSessionRebuiltDeltaByHand: one pass across a recompile in which a
// stream comes (an internal Connect), one goes (a tap removed) and one
// changes label (C's path turns order-sensitive) carries exactly the Delta
// written out here, not one computed by any diff.
func TestSessionRebuiltDeltaByHand(t *testing.T) {
	ctx := context.Background()
	g := NewGraphBuilder("by-hand").
		ComponentPath("A", "in", "out", CW).
		ComponentPath("B", "in", "out", CW).
		ComponentPath("C", "in", "out", CW).
		Source("src", "A", "in").
		Stream("ab", "A", "out", "B", "in").
		Sink("out", "B", "out").
		Sink("tap", "A", "out").
		Source("csrc", "C", "in").
		Sink("cout", "C", "out").
		MustBuild()
	s, err := OpenSession(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.Connect("ab2", "A.out", "B.in"); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveEdge("tap"); err != nil {
		t.Fatal(err)
	}
	if err := s.Annotate("C", "in", "out", OWGate("k")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.LastStats(); !st.Rebuilt || st.Patched {
		t.Fatalf("stats %+v: want a recompile (Rebuilt, not Patched)", st)
	}
	async := LabelReport{Kind: "Async", Severity: 2}
	run := LabelReport{Kind: "Run", Severity: 3}
	want := &Delta{
		Since: 1,
		Streams: []StreamDelta{
			{Name: "ab2", After: async},
			{Name: "cout", Before: async, After: run},
			{Name: "tap", Before: async},
		},
		Verdict:    &VerdictDelta{Before: async, After: run},
		Recomputed: []string{"A", "B", "C"}, // a recompile re-derives every component
		Reused:     s.LastStats().Reused,    // the engine's count of memo hits, whatever it is
	}
	if !reflect.DeepEqual(rep.Delta, want) {
		g, _ := json.Marshal(rep.Delta)
		w, _ := json.Marshal(want)
		t.Errorf("delta\n got %s\nwant %s", g, w)
	}
}

// TestSessionMemoization: an annotation flip recomputes strictly fewer
// output interfaces than the whole graph.
func TestSessionMemoization(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(adSpecGraph(t, CAMPAIGN, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.LastStats().Rebuilt {
		t.Fatal("first analysis must build the structure")
	}
	if err := s.Annotate("Report", "request", "response", ORGate("id")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Rebuilt {
		t.Error("annotation flip must not rebuild the structure")
	}
	if len(st.Recomputed) == 0 {
		t.Error("annotation flip must recompute something")
	}
	if st.Reused == 0 {
		t.Error("annotation flip must reuse upstream derivations")
	}
}

// newEntries counts the entries of cur that prev does not hold by address.
func newEntries[T any](cur, prev []*T) int {
	n := 0
	for _, e := range cur {
		if !slices.Contains(prev, e) {
			n++
		}
	}
	return n
}

// TestSessionSharesUnchangedEntries: a report repeats, by address, the
// previous report's entries for everything an edit left alone — the whole
// lists when nothing changed, and across a structural rebuild every
// component whose derivations stayed in force — so an edit that changes one
// entry yields one new address in each list it touched, and the report still
// equals a fresh analysis.
func TestSessionSharesUnchangedEntries(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(adSpecGraph(t, CAMPAIGN, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}

	again, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if &again.Streams[0] != &first.Streams[0] || &again.Components[0] != &first.Components[0] {
		t.Error("a re-analysis that changed nothing must share both lists whole")
	}

	// A tap on Report's output rebuilds the structure and changes no label.
	if err := s.Connect("tap", "Report.response", ""); err != nil {
		t.Fatal(err)
	}
	tapped, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !s.LastStats().Rebuilt {
		t.Fatal("a new stream must rebuild the structure")
	}
	if len(tapped.Streams) != len(first.Streams)+1 {
		t.Fatalf("streams = %d, want %d", len(tapped.Streams), len(first.Streams)+1)
	}
	if n, m := newEntries(tapped.Streams, first.Streams), newEntries(tapped.Components, first.Components); n != 1 || m != 0 {
		t.Errorf("a tap that changed no label: %d new stream entries and %d new component entries, want 1 and 0", n, m)
	}
	fresh, err := NewAnalyzer().Synthesize(s.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := marshalWithoutDelta(t, tapped), marshalWithoutDelta(t, fresh.Report()); !bytes.Equal(got, want) {
		t.Errorf("report after the rebuild differs from a fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s", got, want)
	}

	// A seal on the tap is that stream's entry and nothing else: one new
	// address among the streams, and the component list is the previous one.
	if err := s.SealStream("tap", "campaign"); err != nil {
		t.Fatal(err)
	}
	sealed, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := newEntries(sealed.Streams, tapped.Streams); n != 1 || findStream(sealed, "tap") == findStream(tapped, "tap") {
		t.Errorf("sealing one sink: %d new stream entries, want the tap's alone", n)
	}
	if &sealed.Components[0] != &tapped.Components[0] {
		t.Error("sealing a sink copied the component list")
	}
	if got := findStream(tapped, "tap"); len(got.Seal) != 0 {
		t.Errorf("the report handed out before the seal now shows it: %+v", got)
	}

	// An annotation flip re-projects the components it re-derives, no more,
	// and the streams whose label it moved.
	if err := s.Annotate("Report", "request", "response", ORGate("id")); err != nil {
		t.Fatal(err)
	}
	flipped, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	recomputed := map[string]bool{}
	for _, name := range flipped.Delta.Recomputed {
		recomputed[name] = true
	}
	if !recomputed["Report"] {
		t.Fatalf("recomputed = %v, want Report among them", flipped.Delta.Recomputed)
	}
	for i, c := range flipped.Components {
		if (c == sealed.Components[i]) == recomputed[c.Name] {
			t.Errorf("component %s: shared = %v, recomputed = %v", c.Name, !recomputed[c.Name], recomputed[c.Name])
		}
	}
	if n, want := newEntries(flipped.Streams, sealed.Streams), len(flipped.Delta.Streams); n != want || want == 0 {
		t.Errorf("the flip moved %d stream labels and made %d new stream entries", want, n)
	}
}

// TestHandedOutReportNeverChanges: a report encodes to the same bytes after
// 200 further edits as when it was handed out — label edits, seals, taps
// wired, dropped and re-wired under their old names, components added,
// passes cut short (the fuzzer's mutator table) — although every later report
// shares entries with it. Every report on the way is held to that, not one.
func TestHandedOutReportNeverChanges(t *testing.T) {
	ctx := context.Background()
	muts := sessionMutators()
	for name, g := range map[string]*Graph{
		"wordcount": WordcountTopology(false),
		"cyclic":    replicatedCyclicTopology(t),
	} {
		t.Run(name, func(t *testing.T) {
			s, err := OpenSession(g)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(24))
			type held struct {
				rep   *Report
				bytes []byte
			}
			var handed []held
			serial, patched := 0, 0
			for edit := 0; edit <= 200; edit++ {
				if edit > 0 {
					muts[rng.Intn(len(muts))](t, rng, s, false, &serial)
				}
				rep, err := s.Synthesize(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if st := s.LastStats(); !st.Rebuilt || st.Patched {
					patched++
				}
				out, err := rep.MarshalIndent()
				if err != nil {
					t.Fatal(err)
				}
				handed = append(handed, held{rep, out})
			}
			if patched < 100 {
				t.Errorf("only %d of 200 reports were patched from the one before: the script shares too little to prove anything", patched)
			}
			for k, h := range handed {
				if again, err := h.rep.MarshalIndent(); err != nil || !bytes.Equal(again, h.bytes) {
					t.Fatalf("report %d changed after it was handed out (%v)\n--- then ---\n%s\n--- now ---\n%s", k, err, h.bytes, again)
				}
			}
		})
	}
}

// TestReportEncodesWhileSessionMovesOn does what the service does: it
// encodes the report it was handed after the session's lock is released, so
// the next edit and its Synthesize run beside the encoder. Under the race
// detector a report patched in place — an entry, or a list another report
// holds — fails here; without it, the bytes must still be those of a second
// encoding made once the session is quiet.
func TestReportEncodesWhileSessionMovesOn(t *testing.T) {
	ctx := context.Background()
	muts := sessionMutators()
	_, g := openGenerated(t, 100, 8)
	s, err := OpenSession(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Synthesize(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	serial := 0
	for round := 0; round < 300; round++ {
		encoded := make(chan []byte, 1)
		go func() {
			out, err := rep.MarshalIndent()
			if err != nil {
				t.Error(err)
			}
			encoded <- out
		}()
		muts[rng.Intn(len(muts))](t, rng, s, false, &serial)
		next, err := s.Synthesize(ctx)
		if err != nil {
			t.Fatal(err)
		}
		beside := <-encoded
		if quiet, err := rep.MarshalIndent(); err != nil || !bytes.Equal(beside, quiet) {
			t.Fatalf("round %d: the report encoded beside the next edit differs from its encoding afterwards (%v)", round, err)
		}
		rep = next
	}
}

// TestSessionMutatorErrors: every mutator validates eagerly and leaves the
// session analyzable.
func TestSessionMutatorErrors(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(WordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"annotate-unknown-comp", func() error { return s.Annotate("Nope", "a", "b", CR) }},
		{"annotate-unknown-path", func() error { return s.Annotate("Count", "nope", "nope", CR) }},
		{"seal-unknown-stream", func() error { return s.SealStream("nope", "k") }},
		{"remove-unknown-stream", func() error { return s.RemoveEdge("nope") }},
		{"connect-dup", func() error { return s.Connect("tweets", "Count.counts", "") }},
		{"connect-unknown-comp", func() error { return s.Connect("x", "Nope.out", "") }},
		{"connect-unknown-iface", func() error { return s.Connect("x", "Count.nope", "") }},
		{"connect-bad-endpoint", func() error { return s.Connect("x", "malformed", "") }},
		{"connect-nothing", func() error { return s.Connect("x", "", "") }},
		{"add-dup-component", func() error { return s.AddComponent("Count", Path("a", "b", CR)) }},
		{"add-no-paths", func() error { return s.AddComponent("New") }},
		{"variant-on-graph-session", func() error { return s.SetVariant("Count", "X") }},
	}
	before := s.Version()
	for _, tc := range cases {
		if err := tc.call(); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	if s.Version() != before {
		t.Error("failed mutators must not bump the session version")
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatalf("session corrupted by failed mutators: %v", err)
	}
}

// TestSessionSupernodeDelta: seal flips on a cyclic graph re-derive the
// collapsed supernode, the report reflects the new derivation (not a
// stale reused ComponentReport), and Delta.Recomputed names the actual
// supernode — "scc+A+B", not a mis-split of its dotted interface names.
func TestSessionSupernodeDelta(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(cyclicTopology(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.SealStream("src", "k"); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta == nil || len(rep.Delta.Recomputed) == 0 {
		t.Fatalf("sealed re-analysis carries no recomputed components: %+v", rep.Delta)
	}
	for _, name := range rep.Delta.Recomputed {
		found := false
		for _, cr := range rep.Components {
			if cr.Name == name {
				found = true
			}
		}
		if !found {
			t.Errorf("Delta.Recomputed names %q, which is not in Report.Components", name)
		}
	}
	fresh, err := NewAnalyzer().Analyze(s.Graph())
	if err != nil {
		t.Fatal(err)
	}
	got := marshalWithoutDelta(t, rep)
	want := marshalWithoutDelta(t, fresh.Report())
	if !bytes.Equal(got, want) {
		t.Errorf("supernode session report differs from fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestSessionSetVariantRollsBackOnOrphanedStream: re-selecting a variant
// that would orphan a stream wired to a variant-only interface fails and
// leaves the session exactly as it was (the mutator-atomicity contract).
func TestSessionSetVariantRollsBackOnOrphanedStream(t *testing.T) {
	ctx := context.Background()
	spec, err := ParseSpec(`C:
  annotation: {from: in, to: out, label: CR}
  EXTRA: {from: in, to: dbg, label: CW}
topology:
  sources:
    - {name: src, to: C.in}
  sinks:
    - {name: snk, from: C.out}
`)
	if err != nil {
		t.Fatal(err)
	}
	s, err := spec.OpenSession("rollback", WithVariant("C", "EXTRA"))
	if err != nil {
		t.Fatal(err)
	}
	// Wire a sink to the interface only the EXTRA variant declares.
	if err := s.Connect("tap", "C.dbg", ""); err != nil {
		t.Fatal(err)
	}
	before := s.Version()
	err = s.SetVariant("C", "")
	if err == nil {
		t.Fatal("SetVariant succeeded despite orphaning stream tap")
	}
	if !strings.Contains(err.Error(), `"tap"`) {
		t.Errorf("error does not name the orphaned stream: %v", err)
	}
	if s.Version() != before {
		t.Error("failed SetVariant bumped the session version")
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatalf("session corrupted by failed SetVariant: %v", err)
	}
	// Dropping the tap first makes the same re-selection legal.
	if err := s.RemoveEdge("tap"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetVariant("C", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestSessionCancellation: a cancelled context aborts Analyze.
func TestSessionCancellation(t *testing.T) {
	s, err := OpenSession(WordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Analyze(ctx); err == nil {
		t.Fatal("cancelled context must abort Analyze")
	}
}

// TestSessionCancelledRebuildDoesNotStaleCaches: a topology mutation
// followed by a *cancelled* analysis must not poison the session's
// projection caches — the next successful analysis is a full pass whose
// report carries the new stream set.
func TestSessionCancelledRebuildDoesNotStaleCaches(t *testing.T) {
	ctx := context.Background()
	s, err := OpenSession(WordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	// Two completed analyses so the projection caches are warm.
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	if err := s.SealStream("tweets", "batch"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Analyze(ctx); err != nil {
		t.Fatal(err)
	}

	// Topology mutation, then an analysis that dies mid-rebuild.
	if err := s.Connect("tap", "Count.counts", ""); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Analyze(cancelled); err == nil {
		t.Fatal("cancelled context must abort Analyze")
	}

	rep, err := s.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !s.LastStats().Rebuilt {
		t.Error("pass after a cancelled rebuild must report Rebuilt")
	}
	if _, ok := rep.StreamLabel("tap"); !ok {
		t.Fatalf("report omits the stream added before the cancelled pass: %v", rep.Streams)
	}
	fresh, err := NewAnalyzer().Analyze(s.Graph())
	if err != nil {
		t.Fatal(err)
	}
	got := marshalWithoutDelta(t, rep)
	want := marshalWithoutDelta(t, fresh.Report())
	if !bytes.Equal(got, want) {
		t.Errorf("post-cancellation report differs from fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s", got, want)
	}
}

// TestSessionCancelledPassUndoneLeavesNoDelta: an analysis cut short after
// it re-derived an edited component, an edit that puts the component back,
// and a full analysis yield the report, delta included, of a twin session
// that made the two edits and was never interrupted: the delta names no
// component whose analysis did not change.
func TestSessionCancelledPassUndoneLeavesNoDelta(t *testing.T) {
	ctx := context.Background()
	var reps [2][]byte
	for twin := range reps {
		s, err := OpenSession(WordcountTopology(false))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Analyze(ctx); err != nil {
			t.Fatal(err)
		}
		if err := s.Annotate("Splitter", "tweets", "words", OWStar()); err != nil {
			t.Fatal(err)
		}
		// Cut after Splitter is re-derived, before Count is.
		if twin == 1 {
			if _, err := s.Analyze(&stopAfter{ctx, 1}); err == nil {
				t.Fatal("the pass was not cut short")
			}
		}
		if err := s.Annotate("Splitter", "tweets", "words", CR); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if reps[twin], err = rep.MarshalIndent(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(reps[0], reps[1]) {
		t.Errorf("interrupted session reports\n%s\nuninterrupted\n%s", reps[1], reps[0])
	}
}

// TestDecodeReportV1Fixtures: the v2 decoder still accepts the recorded v1
// golden documents.
func TestDecodeReportV1Fixtures(t *testing.T) {
	for _, name := range []string{"report_wordcount_v1.json", "report_adreport_v1.json"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := DecodeReport(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Version != ReportVersionV1 {
			t.Errorf("%s: version = %q", name, rep.Version)
		}
		if rep.Delta != nil {
			t.Errorf("%s: v1 fixture decoded with a delta", name)
		}
		if len(rep.Streams) == 0 || rep.Dataflow == "" {
			t.Errorf("%s: decoded report incomplete: %+v", name, rep)
		}
	}
}
