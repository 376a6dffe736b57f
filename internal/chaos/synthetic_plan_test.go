package chaos

import (
	"testing"

	"blazes/internal/dataflow"
)

// TestSyntheticPlansStayAsBuilt holds the synthetic workload's two shared
// plans, the one under M3p and the one under every other mechanism, to the
// rule TestScheduleCannotSeeItsNeighbours holds the other prepared plans
// to: a deep snapshot taken after their first runs equals one taken after
// every mechanism and default plan has run seeds 1…16 on them.
func TestSyntheticPlansStayAsBuilt(t *testing.T) {
	w := SyntheticChains(true)
	for _, mech := range []dataflow.Coordination{dataflow.CoordNone, dataflow.CoordPartitionSealed} {
		if _, err := w.Run(1, DefaultPlans()[0], mech); err != nil {
			t.Fatal(err)
		}
	}
	before := snapshot(&w.plans)
	for _, mech := range dataflow.Coordinations() {
		if !w.Supports(mech) {
			continue
		}
		for _, plan := range DefaultPlans() {
			for seed := int64(1); seed <= 16; seed++ {
				if _, err := w.Run(seed, plan, mech); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if snapshot(&w.plans) != before {
		t.Error("a run changed a synthetic plan")
	}
}
