package blazes

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"blazes/internal/dataflow"
)

// FuzzSessionEdits: any edit script, over an acyclic and a cyclic fixture
// and under any synthesis options, leaves the session reporting what a fresh
// one-shot analysis of its graph reports, with a Delta equal to the diff of
// the two reports. The script's first byte picks the fixture and the
// options; every pair of bytes after it is one step — the differential's own
// mutators (annotate, seal and unseal, tap a sink or a source, add a
// component, remove, re-wire a tap under its old name, cut a pass short),
// chosen by the first byte and driven by a generator seeded with the second,
// then Analyze or Synthesize by the first byte's top bit.
func FuzzSessionEdits(f *testing.F) {
	muts := sessionMutators()
	// One script per mutator and kind of analysis, and longer ones drawn the
	// way TestSessionDifferential draws its sequences.
	for fixture := byte(0); fixture < 4; fixture++ {
		for m := range muts {
			f.Add([]byte{fixture, byte(m), 1, byte(m) | 0x80, 2})
		}
	}
	// Two that are mostly taps — sink (2), source (7), removed (4), re-wired
	// (8) — with a label edit and a cancelled pass (5) between them: the
	// patched structure's scripts, on the acyclic and on the cyclic fixture.
	for fixture := byte(1); fixture < 3; fixture++ {
		script := []byte{fixture}
		for i, m := range []byte{2, 7, 2, 4, 8, 0, 7, 5, 4, 2, 8, 4, 1, 7, 4, 4} {
			script = append(script, m|byte(i%2)<<7, byte(3*i)+fixture)
		}
		f.Add(script)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		script := make([]byte, 1+2*(2+rng.Intn(10)))
		rng.Read(script)
		f.Add(script)
	}

	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) == 0 {
			return
		}
		var g *Graph
		switch script[0] % 4 {
		case 0:
			g = WordcountTopology(false)
		case 1:
			g = adSpecGraph(t, CAMPAIGN, "campaign")
		case 2:
			g = cyclicTopology(t)
		default:
			g = replicatedCyclicTopology(t)
		}
		var opts []Option
		names := dataflow.StrategyNames()
		switch o := int(script[0]/4) % (len(names) + 2); {
		case o == 1:
			opts = []Option{WithStrategy(dataflow.StrategySealing, dataflow.StrategySequencing)}
		case o >= 2:
			opts = []Option{WithStrategy(names[o-2])}
		}
		s, err := OpenSession(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		check := func(step int, synth bool) {
			got, err := analyzeCheckingDelta(ctx, s, synth)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			analyzer := NewAnalyzer(opts...)
			var fresh *Result
			if synth {
				fresh, err = analyzer.Synthesize(s.Graph())
			} else {
				fresh, err = analyzer.Analyze(s.Graph())
			}
			if err != nil {
				t.Fatalf("step %d: fresh analysis: %v", step, err)
			}
			if g, w := marshalWithoutDelta(t, got), marshalWithoutDelta(t, fresh.Report()); !bytes.Equal(g, w) {
				t.Fatalf("step %d: session report differs from a fresh analysis\n--- session ---\n%s\n--- fresh ---\n%s", step, g, w)
			}
		}
		check(0, false)
		steps := script[1:]
		steps = steps[:min(len(steps), 64)] // a bounded run
		serial := 0
		for i := 0; i+1 < len(steps); i += 2 {
			mutate := muts[int(steps[i]&0x7f)%len(muts)]
			mutate(t, rand.New(rand.NewSource(int64(steps[i+1]))), s, false, &serial)
			check(1+i/2, steps[i]&0x80 != 0)
		}
	})
}
