package sim_test

import (
	"reflect"
	"testing"

	"blazes/internal/chaos"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// TestSeedOrderIndependent runs every stripped cell of the chaos suite over
// seeds 1…16 and then 16…1, each with the seeded-state table emptied first
// (cold) and again with it filled (warm), in one process: every seed's
// outcome is the same in all four passes.
func TestSeedOrderIndependent(t *testing.T) {
	const seeds = 16
	for _, w := range chaos.Suite() {
		if !w.Supports(dataflow.CoordNone) {
			continue
		}
		for _, plan := range chaos.DefaultPlans() {
			var first []chaos.Outcome
			for _, pass := range []struct {
				name      string
				cold, rev bool
			}{{"cold 1…16", true, false}, {"warm 1…16", false, false}, {"cold 16…1", true, true}, {"warm 16…1", false, true}} {
				if pass.cold {
					sim.ForgetSeeds()
				}
				got := make([]chaos.Outcome, seeds)
				for i := range seeds {
					k := i
					if pass.rev {
						k = seeds - 1 - i
					}
					o, err := w.Run(int64(k+1), plan, dataflow.CoordNone)
					if err != nil {
						t.Fatalf("%s under %s, seed %d: %v", w.Name(), plan.Name, k+1, err)
					}
					got[k] = o
				}
				if first == nil {
					first = got
					continue
				}
				for k := range got {
					if !reflect.DeepEqual(got[k], first[k]) {
						t.Fatalf("%s under %s, seed %d: the %s pass's outcome differs from the first pass's", w.Name(), plan.Name, k+1, pass.name)
					}
				}
			}
		}
	}
}
