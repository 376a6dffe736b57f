package dataflow

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestLookupStrategyUnknown: the error names the full catalog, so a typo at
// any boundary (API option, CLI flag, service field) is self-correcting.
func TestLookupStrategyUnknown(t *testing.T) {
	_, err := LookupStrategy("nope")
	if err == nil {
		t.Fatal("LookupStrategy accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown strategy "nope"`) {
		t.Errorf("error %q does not name the unknown strategy", msg)
	}
	for _, name := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyPartitionSealing} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list strategy %q", msg, name)
		}
	}
	if _, err := LookupStrategy(""); err == nil {
		t.Error("LookupStrategy accepted CoordNone's empty name")
	}
}

// TestStrategyRegistryContents: the five shipped strategies are in the table
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
	for _, want := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyPartitionSealing} {
		if !seen[want] {
			t.Errorf("strategy %q not listed (listed: %v)", want, names)
		}
		c, err := LookupStrategy(want)
		if err != nil {
			t.Errorf("LookupStrategy(%q): %v", want, err)
			continue
		}
		if c.Strategy() != want {
			t.Errorf("LookupStrategy(%q) = %v, installed by %q", want, c, c.Strategy())
		}
		if c.Summary() == "" {
			t.Errorf("strategy %q has no summary", want)
		}
	}
	if got := Strategies(); len(got) != len(names) {
		t.Errorf("Strategies() returned %d mechanisms for %d names", len(got), len(names))
	}
}

// probeStrategy declines every component after recording what the
// context's stream index answers for each of its input interfaces.
type probeStrategy struct{ seen map[string][]string }

func (probeStrategy) Summary() string { return "test-only strategy" }
func (p probeStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	for _, in := range ctx.Component.Inputs() {
		p.seen[ctx.Component.Name+"."+in] = streamNames(ctx.StreamsInto(in))
	}
	return Strategy{}, false
}

// TestStrategyContextStreamsInto: the helper planners use in place of
// Graph.StreamsInto answers the same streams in the same order, on plain
// components and on a supernode's member-qualified interfaces.
func TestStrategyContextStreamsInto(t *testing.T) {
	probe := probeStrategy{seen: map[string][]string{}}
	offer := func(a *Analysis) {
		clear(probe.seen)
		for ca := range a.Components() {
			plan(ca, []StrategyDef{probe})
		}
	}
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
			offer(a)
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
		offer(a)
		if len(probe.seen) == 0 {
			t.Fatalf("%s: no component was offered to the strategy", g.Name)
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
