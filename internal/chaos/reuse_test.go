package chaos

import (
	"strconv"
	"testing"

	"blazes/internal/adtrack"
	"blazes/internal/dataflow"
)

// TestReusedDigestsAreFresh: a replica that takes an earlier replica's
// digest, because their states are equal, carries the digest its own state
// gives. The Bloom reports THRESH, POOR and CAMPAIGN and the ad network run
// under every mechanism each supports and every default plan, on seeds
// 1–16, and every replica's Final is held to the one made afresh from that
// replica: finalDigest on a second run of the schedule for a report,
// Node.Digest on the run's own nodes for the ad network.
//
// The replicas of these schedules all converge, so each report schedule
// also runs once more with one extra click delivered to its last replica,
// whose state then differs: a comparison that wrongly found it equal would
// hand it a digest that is not its own. The test counts the replicas after
// the first that took a digest and those that made their own, and fails if
// either count is zero, so neither path goes untested.
func TestReusedDigestsAreFresh(t *testing.T) {
	var reused, fellBack int
	count := func(i, twin int) {
		switch {
		case twin != i:
			reused++
		case i > 0:
			fellBack++
		}
	}
	extra := adtrack.Click{ID: "extra", Campaign: adtrack.CampaignName(0), Window: "w0", Server: "extra", Seq: -1}
	for _, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.CAMPAIGN} {
		w := ReplicatedReport(q)
		for _, mech := range dataflow.Coordinations() {
			if !w.Supports(mech) {
				continue
			}
			for _, plan := range DefaultPlans() {
				for seed := int64(1); seed <= 16; seed++ {
					for _, perturb := range []bool{false, true} {
						p, reps, err := w.simulate(seed, plan, mech)
						if err != nil {
							t.Fatal(err)
						}
						_, again, err := w.simulate(seed, plan, mech)
						if err != nil {
							t.Fatal(err)
						}
						if perturb {
							last := len(reps) - 1
							if err := reps[last].node.Deliver("click", extra.Row()); err != nil {
								t.Fatal(err)
							}
							if err := again[last].node.Deliver("click", extra.Row()); err != nil {
								t.Fatal(err)
							}
						}
						finals, twins, err := finalDigests(p, reps)
						if err != nil {
							t.Fatal(err)
						}
						for i := range reps {
							count(i, twins[i])
							want, err := finalDigest(again[i], p)
							if err != nil {
								t.Fatal(err)
							}
							if finals[i] != want {
								t.Fatalf("%s under %s/%s, seed %d (extra click %v), replica %d: final %s, afresh %s", w.Name(), mech, plan.Name, seed, perturb, i, finals[i], want)
							}
							reps[i].node.Release()
							again[i].node.Release()
						}
					}
				}
			}
		}
	}

	w := AdNetwork()
	for _, mech := range dataflow.Coordinations() {
		if !w.Supports(mech) {
			continue
		}
		for _, plan := range DefaultPlans() {
			for seed := int64(1); seed <= 16; seed++ {
				cfg, prepared, err := w.config(seed, plan, mech)
				if err != nil {
					t.Fatal(err)
				}
				res, nodes, err := adtrack.RunHeld(cfg, prepared)
				if err != nil {
					t.Fatal(err)
				}
				out := adNetworkOutcome(cfg, res)
				for i, n := range nodes {
					// Run takes the digest of the first earlier node whose
					// state equals n's.
					twin := i
					for j, m := range nodes[:i] {
						if n.StateEqual(m) {
							twin = j
							break
						}
					}
					count(i, twin)
					want := "state:" + n.Digest() + " held:" + strconv.Itoa(res.Held)
					if got := out.Replicas[i].Final; got != want {
						t.Fatalf("%s under %s/%s, seed %d, replica %d: final %s, afresh %s", w.Name(), mech, plan.Name, seed, i, got, want)
					}
				}
				for _, n := range nodes {
					n.Release()
				}
			}
		}
	}
	t.Logf("%d replicas took an earlier replica's digest, %d compared and made their own", reused, fellBack)
	if reused == 0 || fellBack == 0 {
		t.Fatalf("%d replicas took a digest and %d made their own: one path went untested", reused, fellBack)
	}
}
