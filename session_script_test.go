package blazes

// The scripted session differential: one long-lived session over a generated
// 1k-component topology, driven through every interleaving the engine's
// caches can get wrong — the synthesis cache (plans kept per component
// between passes), the change set a pass reports (positions, not names) and
// the session's positional report patching — once per strategy and once
// with the list "sealing,sequencing", each report and Delta held to a fresh
// one-shot analysis of the same graph under the same options.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/race"
)

// editScript holds what the scripted differential draws its targets from.
type editScript struct {
	t     *testing.T
	rng   *rand.Rand
	s     *Session
	opts  []Option
	last  *Report // the session's latest report
	fresh *Report // and the fresh analysis it was held to

	acyclic  []*Component // annotation flips on these re-derive, never recompile
	bySource []*Component // those among them that read an external source
	internal []string     // streams between two of them: their label is derived
	sources  []string
	taps     []string
	serial   int

	edits, analyses, patched, spliced, sealOnly, stratDeltas, cancelled int
}

func newEditScript(t *testing.T, seed int64, opts ...Option) *editScript {
	spec, _ := openGenerated(t, 1000, seed)
	s, err := spec.OpenSession(fmt.Sprintf("script-%d", seed), opts...)
	if err != nil {
		t.Fatal(err)
	}
	e := &editScript{t: t, rng: rand.New(rand.NewSource(seed)), s: s, opts: opts}
	e.analyze(true)

	// A supernode "scc+A+B" names the components a flip would recompile.
	cyclic := map[string]bool{}
	for _, c := range e.last.Components {
		if rest, ok := strings.CutPrefix(c.Name, "scc+"); ok {
			for _, member := range strings.Split(rest, "+") {
				cyclic[member] = true
			}
		}
	}
	g := s.inc.Graph() // the live graph: the script reads annotations as they stand
	fedBySource := map[string]bool{}
	for _, st := range g.Streams() {
		switch {
		case st.IsSource():
			e.sources = append(e.sources, st.Name)
			fedBySource[st.ToComp] = true
		case !st.IsSink() && !cyclic[st.FromComp] && !cyclic[st.ToComp] && findStream(e.last, st.Name) != nil:
			e.internal = append(e.internal, st.Name) // a self-loop is not in the report
		}
	}
	for _, c := range g.Components() {
		if !cyclic[c.Name] {
			e.acyclic = append(e.acyclic, c)
			if fedBySource[c.Name] {
				e.bySource = append(e.bySource, c)
			}
		}
	}
	if len(e.acyclic) == 0 || len(e.bySource) == 0 || len(e.internal) == 0 || len(e.sources) == 0 {
		t.Fatalf("seed %d: generated topology lacks a target class", seed)
	}
	return e
}

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// analyze runs Analyze or Synthesize and holds the report to a fresh
// analysis of the session's graph and the Delta to the diff of the reports.
func (e *editScript) analyze(synth bool) *Report {
	e.t.Helper()
	got, err := analyzeCheckingDelta(context.Background(), e.s, synth)
	if err != nil {
		e.t.Fatalf("analysis %d: %v", e.analyses, err)
	}
	var fresh *Result
	if synth {
		fresh, err = NewAnalyzer(e.opts...).Synthesize(e.s.Graph())
	} else {
		fresh, err = NewAnalyzer(e.opts...).Analyze(e.s.Graph())
	}
	if err != nil {
		e.t.Fatalf("analysis %d: fresh: %v", e.analyses, err)
	}
	// Equal structures encode to equal bytes; the encodings themselves are
	// compared now and then, and after the last round.
	want, bare := fresh.Report(), *got
	bare.Delta = nil
	if !reflect.DeepEqual(&bare, want) || e.analyses%32 == 0 && !bytes.Equal(marshalWithoutDelta(e.t, got), marshalWithoutDelta(e.t, want)) {
		e.t.Fatalf("analysis %d (synthesize=%v): session report differs from a fresh analysis", e.analyses, synth)
	}
	e.analyses++
	e.fresh = want
	if got.Delta != nil {
		switch stats := e.s.LastStats(); {
		case !stats.Rebuilt:
			e.patched++
		case stats.Patched:
			e.spliced++
		}
		if len(got.Delta.Strategies) > 0 {
			e.stratDeltas++
		}
	}
	e.last = got
	return got
}

func (e *editScript) annotate(c *Component, p dataflow.Path, ann Annotation) {
	e.t.Helper()
	e.edits++
	if err := e.s.Annotate(c.Name, p.From, p.To, ann); err != nil {
		e.t.Fatal(err)
	}
}

// setAll annotates every path of c; anns[i] is the i-th path's, or one
// annotation for all.
func (e *editScript) setAll(c *Component, anns ...Annotation) {
	e.t.Helper()
	for i, p := range c.Paths {
		e.annotate(c, p, anns[i%len(anns)])
	}
}

func (e *editScript) seal(stream string, key ...string) {
	e.t.Helper()
	e.edits++
	if err := e.s.SealStream(stream, key...); err != nil {
		e.t.Fatal(err)
	}
}

// round is one turn of the script: eight analyses over some twenty edits.
func (e *editScript) round(r int) {
	t, rng := e.t, e.rng
	original := func(c *Component) []Annotation {
		anns := make([]Annotation, len(c.Paths))
		for i, p := range c.Paths {
			anns[i] = p.Ann
		}
		return anns
	}
	flipSome := func() { // a pass with more than one thing to do
		for range 3 {
			c := pick(rng, e.acyclic)
			e.annotate(c, pick(rng, c.Paths), randAnn(rng))
		}
	}

	// A component next to a source goes order-sensitive under a pass that
	// does not synthesize; the synthesis after it must plan it all the same.
	// Then the flip is taken back: the derivations come out of the version
	// memo and the plan must follow them back.
	near := pick(rng, e.bySource)
	before := original(near)
	e.setAll(near, OWStar())
	flipSome()
	e.analyze(false)
	e.analyze(true)
	e.setAll(near, before...)
	e.analyze(true)

	// A component that has a strategy loses the need for one, and gets it back.
	if planned := e.plannedComponent(); planned != nil {
		before := original(planned)
		e.setAll(planned, CR)
		e.analyze(true)
		e.setAll(planned, before...)
	}
	flipSome()
	e.analyze(r%2 == 0)

	// A seal on an internal stream moves no label — the stream's label is
	// its producer's — yet the report's entry must carry it.
	in := pick(rng, e.internal)
	e.seal(in, "key")
	rep := e.analyze(true)
	if !e.s.LastStats().Rebuilt {
		if len(rep.Delta.Streams) != 0 || len(rep.Delta.Recomputed) != 0 {
			t.Fatalf("round %d: sealing internal stream %s moved a label: %+v", r, in, rep.Delta)
		}
		e.sealOnly++
	}
	if sr := findStream(rep, in); sr == nil || len(sr.Seal) != 1 || sr.Seal[0] != "key" {
		t.Fatalf("round %d: entry of sealed internal stream %s: %+v", r, in, sr)
	}

	// A pass cut short in the middle of its queue, then completed.
	near = pick(rng, e.bySource)
	e.setAll(near, pick(rng, []Annotation{OWStar(), ORStar(), CW}))
	e.toggleSeal(pick(rng, e.sources)) // a source's seal is its label: this moves labels downstream
	if _, err := e.s.Analyze(&stopAfter{context.Background(), 1}); err != nil {
		e.cancelled++
	}
	e.analyze(true)

	// A topology edit between label edits: a tap (patched into the standing
	// structure), a component that sorts before every other (a recompile:
	// each position moves up by one), a tap removed (patched out).
	e.seal(in)
	e.serial++
	e.edits++
	switch r % 3 {
	case 0:
		// A sink tap moves no label; a source tap is one more input to its
		// component, whose entry changes under a stream list that grew.
		on := pick(rng, e.acyclic)
		name, from, to := fmt.Sprintf("script-tap-%d", e.serial), on.Name+"."+pick(rng, on.Outputs()), ""
		if r%2 == 1 {
			from, to = "", on.Name+"."+pick(rng, on.Inputs())
		}
		if err := e.s.Connect(name, from, to); err != nil {
			t.Fatal(err)
		}
		e.taps = append(e.taps, name)
	case 1:
		from := pick(rng, e.acyclic)
		name := fmt.Sprintf("!aux-%03d", 999-e.serial)
		if err := e.s.AddComponent(name, Path("in", "out", randAnn(rng))); err != nil {
			t.Fatal(err)
		}
		if err := e.s.Connect(name+"-in", from.Name+"."+pick(rng, from.Outputs()), name+".in"); err != nil {
			t.Fatal(err)
		}
		if err := e.s.Connect(name+"-out", name+".out", ""); err != nil {
			t.Fatal(err)
		}
	default:
		if len(e.taps) > 0 {
			if err := e.s.RemoveEdge(e.taps[0]); err != nil {
				t.Fatal(err)
			}
			e.taps = e.taps[1:]
		}
	}
	flipSome()
	e.analyze(r%2 == 1)
}

// toggleSeal seals an unsealed source and unseals a sealed one.
func (e *editScript) toggleSeal(src string) {
	if st := e.s.inc.Graph().Stream(src); !st.Seal.IsEmpty() {
		e.seal(src)
	} else {
		e.seal(src, pick(e.rng, []string{"key", "batch", "id", "window"}))
	}
}

// plannedComponent picks an acyclic component the latest synthesis planned a
// strategy for.
func (e *editScript) plannedComponent() *Component {
	planned := map[string]bool{}
	for _, st := range e.last.Strategies {
		planned[st.Component] = true
	}
	var from []*Component
	for _, c := range e.acyclic {
		if planned[c.Name] {
			from = append(from, c)
		}
	}
	if len(from) == 0 {
		return nil
	}
	return pick(e.rng, from)
}

func findStream(rep *Report, name string) *StreamReport {
	for _, st := range rep.Streams {
		if st.Name == name {
			return st
		}
	}
	return nil
}

// TestSessionScriptDifferential: ≥300 scripted edits per configuration.
func TestSessionScriptDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("1k scripted differential skipped under -short")
	}
	type config struct {
		name string
		opts []Option
	}
	configs := []config{{"prefer-sequencing", []Option{WithStrategy(dataflow.StrategySealing, dataflow.StrategySequencing)}}}
	for _, name := range dataflow.StrategyNames() {
		configs = append(configs, config{"strategy=" + name, []Option{WithStrategy(name)}})
	}
	// One goroutine drives a session: the race detector has nothing to find
	// here, and makes the script ten times slower.
	edits := 300
	if race.Enabled {
		edits = 40
	}
	for i, c := range configs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			e := newEditScript(t, 900+int64(i), c.opts...)
			rounds := 0
			for ; e.edits < edits; rounds++ {
				e.round(rounds)
			}
			if !bytes.Equal(marshalWithoutDelta(t, e.last), marshalWithoutDelta(t, e.fresh)) {
				t.Fatal("the session's last report does not encode to the bytes of a fresh analysis")
			}
			t.Logf("%d edits, %d analyses: %d patched (%d of them a seal alone) and %d more across a tap, %d with a strategy delta, %d passes cancelled",
				e.edits, e.analyses, e.patched, e.sealOnly, e.spliced, e.stratDeltas, e.cancelled)
			// The script must have been where the caches are: most passes
			// keep the structure, taps are patched in and out of it, plans
			// come and go, passes are cut short.
			if e.patched < 5*rounds || e.spliced < rounds/2 || e.sealOnly < rounds/2 || e.stratDeltas < rounds || e.cancelled < rounds/2 {
				t.Errorf("script missed its targets: %d patched, %d across a tap, %d seal-only, %d strategy deltas, %d cancelled over %d rounds",
					e.patched, e.spliced, e.sealOnly, e.stratDeltas, e.cancelled, rounds)
			}
		})
	}
}
