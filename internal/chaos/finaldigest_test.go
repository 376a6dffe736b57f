package chaos

import (
	"testing"

	"blazes/internal/bloom"
	"blazes/internal/dataflow"
)

// finalDigest is a replica's final digest made afresh from its own state:
// drained, then probed.
func finalDigest(r *bloomReplica, p *bloomPlan) (string, error) {
	if err := r.drain(); err != nil {
		return "", err
	}
	return r.probe(p)
}

// perProbeDigest is the oracle of finalDigest: it drains the node, then
// poses each probe in a tick of its own and keeps the response rows that
// carry the probe's id.
func perProbeDigest(r *bloomReplica, p *bloomPlan) (string, error) {
	if r.node.Pending() {
		if _, err := r.node.Tick(); err != nil {
			return "", err
		}
	}
	entries := make([]string, len(p.probes))
	for i := range p.probes {
		probe := &p.probes[i]
		if err := r.node.Deliver("request", probe.row); err != nil {
			return "", err
		}
		em, err := r.node.Tick()
		if err != nil {
			return "", err
		}
		var rows []string
		for _, e := range em {
			if e.Collection != "response" {
				continue
			}
			for _, resp := range e.Rows {
				if bloom.AsString(resp[1]) == probe.id {
					rows = append(rows, resp.String())
				}
			}
		}
		entries[i] = probe.id + "→{" + canonSet(rows) + "}"
	}
	return "log{" + string(r.node.AppendRender(nil, "clicklog")) + "} | final{" + canonSet(entries) + "}", nil
}

// TestFinalDigestOneTick: answering every probe in one tick digests what
// one tick per probe digests, for the four report queries under every
// mechanism each supports and every default plan, on seeds 1–16. Each
// schedule runs twice, once for each digest.
func TestFinalDigestOneTick(t *testing.T) {
	for _, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.WINDOW, dataflow.CAMPAIGN} {
		w := ReplicatedReport(q)
		for _, mech := range dataflow.Coordinations() {
			if !w.Supports(mech) {
				continue
			}
			for _, plan := range DefaultPlans() {
				for seed := int64(1); seed <= 16; seed++ {
					p, one, err := w.simulate(seed, plan, mech)
					if err != nil {
						t.Fatal(err)
					}
					_, each, err := w.simulate(seed, plan, mech)
					if err != nil {
						t.Fatal(err)
					}
					for i := range one {
						got, err := finalDigest(one[i], p)
						if err != nil {
							t.Fatal(err)
						}
						want, err := perProbeDigest(each[i], p)
						if err != nil {
							t.Fatal(err)
						}
						if got != want {
							t.Fatalf("%s under %s/%s, seed %d, replica %d: one tick digests %s, a tick per probe %s", w.Name(), mech, plan.Name, seed, i, got, want)
						}
						one[i].node.Release()
						each[i].node.Release()
					}
				}
			}
		}
	}
}
