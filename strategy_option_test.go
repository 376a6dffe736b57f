package blazes

import (
	"strings"
	"testing"
)

// TestWithStrategyUnknownRejected: an unknown strategy name fails at the
// analysis boundary — Analyze, Synthesize, Repair and OpenSession all
// reject it before any work happens, and the error lists the registered
// names.
func TestWithStrategyUnknownRejected(t *testing.T) {
	g := WordcountTopology(true)
	a := NewAnalyzer(WithStrategy("nope"))
	for name, run := range map[string]func() error{
		"analyze":    func() error { _, err := a.Analyze(g); return err },
		"synthesize": func() error { _, err := a.Synthesize(g); return err },
		"repair":     func() error { _, err := a.Repair(g); return err },
		"session":    func() error { _, err := OpenSession(g, WithStrategy("nope")); return err },
	} {
		err := run()
		if err == nil {
			t.Errorf("%s accepted an unknown strategy", name)
			continue
		}
		if !strings.Contains(err.Error(), `unknown strategy "nope"`) {
			t.Errorf("%s error %q does not name the unknown strategy", name, err)
		}
		if !strings.Contains(err.Error(), "sealing") || !strings.Contains(err.Error(), "quorum-ordering") || !strings.Contains(err.Error(), "sequencing") {
			t.Errorf("%s error %q does not list the registered names", name, err)
		}
	}
}

// TestWithStrategySelectsMechanism: a preferred strategy that applies wins
// over the default chain, and the mechanism surfaces through the Report v2
// strategy naming.
func TestWithStrategySelectsMechanism(t *testing.T) {
	g := WordcountTopology(false) // ungated: default chain would order
	res, err := NewAnalyzer(WithStrategy("quorum-ordering")).Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies()) == 0 {
		t.Fatal("no strategies synthesized for the ungated wordcount")
	}
	found := false
	for _, st := range res.Strategies() {
		if st.Mechanism == CoordQuorumOrder {
			found = true
		}
	}
	if !found {
		t.Fatalf("no quorum-ordering strategy in %v", res.Strategies())
	}
	rep := res.Report()
	joined := ""
	for _, st := range rep.Strategies {
		joined += st.Mechanism + " "
	}
	if !strings.Contains(joined, "quorum-ordering") {
		t.Errorf("report mechanisms %q missing quorum-ordering", joined)
	}
}

// TestWithStrategyPreconditionFallback: a preferred strategy whose
// preconditions fail (partition-sealing on the unsealed topology) silently
// falls back to the default chain — the guarantee never weakens because a
// preference cannot apply.
func TestWithStrategyPreconditionFallback(t *testing.T) {
	g := WordcountTopology(false)
	pref, err := NewAnalyzer(WithStrategy("partition-sealing")).Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewAnalyzer().Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pref.Strategies()) != len(base.Strategies()) {
		t.Fatalf("fallback synthesized %d strategies, default %d", len(pref.Strategies()), len(base.Strategies()))
	}
	for i := range base.Strategies() {
		if pref.Strategies()[i].Mechanism != base.Strategies()[i].Mechanism {
			t.Errorf("component %s: fallback mechanism %v, default %v",
				base.Strategies()[i].Component, pref.Strategies()[i].Mechanism, base.Strategies()[i].Mechanism)
		}
	}
}
