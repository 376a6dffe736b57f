package dataflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// fakeStrategy is a registrable no-op used by the misuse tests.
type fakeStrategy struct{ name string }

func (f fakeStrategy) Name() string          { return f.name }
func (f fakeStrategy) Summary() string       { return "test-only strategy" }
func (fakeStrategy) Mechanism() Coordination { return CoordNone }
func (f fakeStrategy) Plan(*StrategyContext) (Strategy, bool) {
	return Strategy{}, false
}

// TestDuplicateStrategyRegistrationPanics: registering a name twice is a
// programming error caught at init time, and the panic names both
// registration sites so the offender is findable without a search.
func TestDuplicateStrategyRegistrationPanics(t *testing.T) {
	RegisterStrategy(fakeStrategy{name: "zz-test-duplicate"})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("second registration of the same name did not panic")
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		if !strings.Contains(msg, `duplicate strategy "zz-test-duplicate"`) {
			t.Errorf("panic %q does not name the duplicated strategy", msg)
		}
		// Both the new and the original registration sites are this file.
		if strings.Count(msg, "strategyreg_test.go") != 2 {
			t.Errorf("panic %q does not name both registration sites", msg)
		}
	}()
	RegisterStrategy(fakeStrategy{name: "zz-test-duplicate"})
}

// TestLookupStrategyUnknown: the error names the full registered set, so a
// typo at any boundary (API option, CLI flag, service field) is
// self-correcting.
func TestLookupStrategyUnknown(t *testing.T) {
	_, err := LookupStrategy("nope")
	if err == nil {
		t.Fatal("LookupStrategy accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown strategy "nope"`) {
		t.Errorf("error %q does not name the unknown strategy", msg)
	}
	for _, name := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyMergeRewrite, StrategyPartitionSealing} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered strategy %q", msg, name)
		}
	}
}

// TestStrategyRegistryContents: the six shipped strategies are registered
// and listed in sorted order.
func TestStrategyRegistryContents(t *testing.T) {
	names := StrategyNames()
	seen := map[string]bool{}
	for i, n := range names {
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Errorf("StrategyNames not sorted: %v", names)
			break
		}
	}
	for _, want := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyMergeRewrite, StrategyPartitionSealing} {
		if !seen[want] {
			t.Errorf("strategy %q not registered (registered: %v)", want, names)
		}
		def, err := LookupStrategy(want)
		if err != nil {
			t.Errorf("LookupStrategy(%q): %v", want, err)
			continue
		}
		if def.Name() != want {
			t.Errorf("LookupStrategy(%q).Name() = %q", want, def.Name())
		}
		if def.Summary() == "" {
			t.Errorf("strategy %q has no summary", want)
		}
	}
	defs := Strategies()
	if len(defs) != len(names) {
		t.Errorf("Strategies() returned %d defs for %d names", len(defs), len(names))
	}
}

// probeStrategy declines every component after recording what the
// context's stream index answers for each of its input interfaces.
type probeStrategy struct{ seen map[string][]string }

func (probeStrategy) Name() string            { return "zz-test-probe" }
func (probeStrategy) Summary() string         { return "test-only strategy" }
func (probeStrategy) Mechanism() Coordination { return CoordNone }
func (p probeStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	for _, in := range ctx.Component.Inputs() {
		p.seen[ctx.Component.Name+"."+in] = streamNames(ctx.StreamsInto(in))
	}
	return Strategy{}, false
}

// TestStrategyContextStreamsInto: the helper out-of-tree strategies use in
// place of Graph.StreamsInto answers the same streams in the same order, on
// plain components and on a supernode's member-qualified interfaces.
func TestStrategyContextStreamsInto(t *testing.T) {
	probe := probeStrategy{seen: map[string][]string{}}
	RegisterStrategy(probe)
	// The first random graph whose supernode is offered to the strategy (some
	// draws close a cycle the collapse refuses, or only a self-loop, or one
	// that needs no coordination).
	withSupernode := func() *Graph {
		for seed := int64(0); ; seed++ {
			g := randomCyclicGraph(rand.New(rand.NewSource(seed)))
			a, err := Analyze(g)
			if err != nil {
				continue
			}
			clear(probe.seen)
			Synthesize(a, SynthesisOptions{Prefer: []string{probe.Name()}})
			for key := range probe.seen {
				if strings.HasPrefix(key, "scc+") {
					return g
				}
			}
		}
	}
	for _, g := range []*Graph{AdNetwork(POOR), WordcountTopology(false), withSupernode()} {
		a, err := Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		clear(probe.seen)
		Synthesize(a, SynthesisOptions{Prefer: []string{probe.Name()}})
		if len(probe.seen) == 0 {
			t.Fatalf("%s: no component was offered to the preferred strategy", g.Name)
		}
		for key, got := range probe.seen {
			comp, iface, _ := strings.Cut(key, ".") // component names here have no dot; a supernode's interfaces do
			want := streamNames(a.Collapsed.StreamsInto(comp, iface))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: StreamsInto(%s) = %v, Graph.StreamsInto has %v", g.Name, key, got, want)
			}
		}
		if got := (&StrategyContext{Analysis: a, Component: a.Collapsed.Components()[0]}).StreamsInto("no-such-interface"); got != nil {
			t.Errorf("unknown interface answers %v", got)
		}
	}
}
