package chaos

import (
	"context"
	"os"
	"testing"

	"blazes/internal/dataflow"
)

// TestGeneratedWorkloadCheck closes the loop from the topology generator
// to the chaos harness: a generated graph runs under every fault plan,
// its coordinated sweeps are outcome-invariant, and stripping the
// coordination reproduces divergence on the order-sensitive interfaces
// the generator drew.
func TestGeneratedWorkloadCheck(t *testing.T) {
	w := Generated(24, 7)
	rep, err := Check(context.Background(), w, Config{Seeds: 8})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if rep.Deterministic {
		t.Fatal("generated default-mix graph analyzed as deterministic; the adapter test needs an order-sensitive one")
	}
	if len(rep.Uncoordinated) == 0 {
		t.Fatal("no stripped sweeps")
	}
	if !rep.DivergenceReproduced {
		t.Fatalf("stripping coordination reproduced no divergence:\n%s", rep.Summary())
	}
	if !rep.Holds {
		t.Fatalf("guarantee violated:\n%s", rep.Summary())
	}
}

// TestGeneratedRunDeterminism: runs are pure functions of (seed, plan,
// mechanism) — the property distribution and replay lean on — and M1's
// preordained order is seed-independent.
func TestGeneratedRunDeterminism(t *testing.T) {
	w := Generated(24, 7)
	plan := DefaultPlans()[1] // reorder
	for _, mech := range dataflow.Coordinations() {
		if !w.Supports(mech) {
			continue
		}
		a, err := w.Run(3, plan, mech)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		b, err := w.Run(3, plan, mech)
		if err != nil {
			t.Fatalf("%s: %v", mech, err)
		}
		if a.Replicas[0].Final != b.Replicas[0].Final {
			t.Errorf("%s: same seed, different outcome: %s vs %s", mech, a.Replicas[0].Final, b.Replicas[0].Final)
		}
	}
	s1, err := w.Run(1, plan, 1 /* CoordSequenced */)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w.Run(2, plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Replicas[0].Final != s2.Replicas[0].Final {
		t.Error("M1 outcome varies across seeds; the preordained order must be seed-independent")
	}
}

// TestGeneratedNameRoundTrip: the name encodes the full configuration, so
// LookupWorkload rebuilds the identical workload in another process.
func TestGeneratedNameRoundTrip(t *testing.T) {
	w := Generated(24, 7)
	got, err := LookupWorkload(w.Name())
	if err != nil {
		t.Fatalf("LookupWorkload(%q): %v", w.Name(), err)
	}
	gw, ok := got.(*GeneratedWorkload)
	if !ok || gw.Components != 24 || gw.Seed != 7 {
		t.Fatalf("LookupWorkload(%q) = %#v", w.Name(), got)
	}
	a, err := w.Run(5, DefaultPlans()[0], 0 /* CoordNone */)
	if err != nil {
		t.Fatal(err)
	}
	b, err := gw.Run(5, DefaultPlans()[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Replicas[0].Final != b.Replicas[0].Final {
		t.Error("rebuilt workload disagrees with the original on the same run")
	}
	for _, bad := range []string{"generated-xc-s1", "generated-0c-s1", "generated-12", "generated-12c-sQ"} {
		if _, err := LookupWorkload(bad); err == nil {
			t.Errorf("LookupWorkload(%q) accepted a malformed name", bad)
		}
	}
}

// TestScaleGeneratedChaos runs the full-size tier: a 1000-component
// generated topology under the complete fault-plan sweep. Gated behind
// BLAZES_SCALE_FULL with a reduced seed count — the default tier above
// already covers the interpreter; this tier is about the adapter holding
// up at ROADMAP scale.
func TestScaleGeneratedChaos(t *testing.T) {
	if os.Getenv("BLAZES_SCALE_FULL") == "" {
		t.Skip("set BLAZES_SCALE_FULL=1 to sweep a 1000-component generated topology")
	}
	w := Generated(1000, 11)
	rep, err := Check(context.Background(), w, Config{Seeds: 16})
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !rep.Holds {
		t.Fatalf("guarantee violated at 1000 components:\n%s", rep.Summary())
	}
}
