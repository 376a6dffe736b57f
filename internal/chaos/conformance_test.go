package chaos

import (
	"context"
	"os"
	"testing"

	"blazes/internal/dataflow"
)

// conformanceWorkload maps a registered strategy to the synthetic workload
// that exercises it: the sealing family needs the per-producer seal (gated
// chains), everything else repairs the ungated order-sensitive chains.
// A registered strategy with no mapping fails TestStrategyConformance —
// new strategies must declare how they are conformance-checked.
func conformanceWorkload(strategy string) Workload {
	switch strategy {
	case dataflow.StrategySealing, dataflow.StrategyPartitionSealing:
		return SyntheticChains(true)
	case dataflow.StrategyOrdering, dataflow.StrategySequencing, dataflow.StrategyQuorumOrdering, dataflow.StrategyMergeRewrite:
		return SyntheticChains(false)
	}
	return nil
}

// TestStrategyConformance is the conformance gate every registered
// strategy must pass: iterating the registry (so future registrations are
// checked by construction), synthesize with the strategy preferred and
// require the two-sided guarantee — the coordinated sweeps converge and
// the stripped variant reproduces divergence — under the mechanism the
// strategy declares (StrategyDef.Mechanism), which guards against the
// preferred strategy silently falling back to the default chain. The
// default tier is a smoke matrix (8 seeds × 2 fault plans);
// BLAZES_SCALE_FULL selects the full 64 × 4 sweep.
func TestStrategyConformance(t *testing.T) {
	seeds, plans := 8, DefaultPlans()[:2]
	if os.Getenv("BLAZES_SCALE_FULL") != "" {
		seeds, plans = DefaultSeeds, DefaultPlans()
	}
	defs := dataflow.Strategies()
	if len(defs) < 6 {
		t.Fatalf("registry has %d strategies, want at least 6 (%v)", len(defs), dataflow.StrategyNames())
	}
	for _, def := range defs {
		def := def
		t.Run(def.Name(), func(t *testing.T) {
			t.Parallel()
			w := conformanceWorkload(def.Name())
			if w == nil {
				t.Fatalf("strategy %q has no conformance workload; map it in conformanceWorkload", def.Name())
			}
			wantMech := def.Mechanism().String()
			rep, err := Check(context.Background(), w, Config{
				Seeds:  seeds,
				Plans:  plans,
				Prefer: []string{def.Name()},
			})
			if err != nil {
				t.Fatalf("Check(%s, strategy=%s): %v", w.Name(), def.Name(), err)
			}
			if !rep.Holds {
				t.Fatalf("strategy %q failed conformance on %s: %s", def.Name(), w.Name(), rep.Summary())
			}
			if !rep.DivergenceReproduced {
				t.Fatalf("strategy %q: stripped %s did not reproduce divergence", def.Name(), w.Name())
			}
			found := false
			for _, sw := range rep.Coordinated {
				if sw.Mechanism == wantMech {
					found = true
				} else {
					t.Errorf("unexpected coordinated mechanism %q (want only %q)", sw.Mechanism, wantMech)
				}
			}
			if !found {
				t.Fatalf("strategy %q never installed %q on %s (strategies: %v)",
					def.Name(), wantMech, w.Name(), rep.Strategies)
			}
		})
	}
}
