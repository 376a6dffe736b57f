package chaos

import (
	"context"
	"os"
	"testing"

	"blazes/internal/dataflow"
)

// conformanceWorkload maps a strategy to the synthetic workload that
// exercises it: the sealing family needs the per-producer seal (gated
// chains), everything else repairs the ungated order-sensitive chains.
// A strategy with no mapping fails TestStrategyConformance — new
// strategies must declare how they are conformance-checked.
func conformanceWorkload(strategy string) Workload {
	switch strategy {
	case dataflow.StrategySealing, dataflow.StrategyPartitionSealing:
		return SyntheticChains(true)
	case dataflow.StrategyOrdering, dataflow.StrategySequencing, dataflow.StrategyQuorumOrdering:
		return SyntheticChains(false)
	}
	return nil
}

// TestStrategyConformance is the conformance gate every strategy must
// pass: iterating the mechanisms table (so future rows are checked by
// construction), synthesize with the strategy preferred and require the
// two-sided guarantee — the coordinated sweeps converge and the stripped
// variant reproduces divergence — under the mechanism of the strategy's
// row, which guards against the preferred strategy silently falling back
// to the default chain. The default tier is a smoke matrix (8 seeds × 2
// fault plans); BLAZES_SCALE_FULL selects the full 64 × 4 sweep.
func TestStrategyConformance(t *testing.T) {
	seeds, plans := 8, DefaultPlans()[:2]
	if os.Getenv("BLAZES_SCALE_FULL") != "" {
		seeds, plans = DefaultSeeds, DefaultPlans()
	}
	mechs := dataflow.Strategies()
	if len(mechs) < 5 {
		t.Fatalf("table has %d strategies, want at least 5 (%v)", len(mechs), dataflow.StrategyNames())
	}
	for _, mech := range mechs {
		name := mech.Strategy()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			w := conformanceWorkload(name)
			if w == nil {
				t.Fatalf("strategy %q has no conformance workload; map it in conformanceWorkload", name)
			}
			wantMech := mech.String()
			rep, err := Check(context.Background(), w, Config{
				Seeds:  seeds,
				Plans:  plans,
				Prefer: []string{name},
			})
			if err != nil {
				t.Fatalf("Check(%s, strategy=%s): %v", w.Name(), name, err)
			}
			if !rep.Holds {
				t.Fatalf("strategy %q failed conformance on %s: %s", name, w.Name(), rep.Summary())
			}
			if !rep.DivergenceReproduced {
				t.Fatalf("strategy %q: stripped %s did not reproduce divergence", name, w.Name())
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
					name, wantMech, w.Name(), rep.Strategies)
			}
		})
	}
}
