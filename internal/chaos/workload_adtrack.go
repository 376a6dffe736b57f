package chaos

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// AdNetworkWorkload runs the paper's full ad-tracking network (reporting
// replicas on the Bloom runtime, the ad-server click plan, the coordination
// regimes of Section VIII-B) under chaotic delivery. The dataflow is the
// white-box Figure 4 graph with the click source sealed per campaign, so
// the analyzer recommends sealing. Each mechanism runs as the regime
// adtrack.RegimeFor names, and the regime's messages go through the same
// coord.Delivery as every other workload's: a click comes from its ad
// server into its campaign's partition, a request reads its campaign, and
// each burst's seals follow that burst's clicks on the server's stream.
// None of them is retransmitted, so the duplicate plan reaches the network
// only through the quorum order's hops.
type AdNetworkWorkload struct {
	Query            dataflow.AdQuery
	AdServers        int
	EntriesPerServer int
	Requests         int

	// prepared is the plan the fields above determine; set them before the
	// first Run.
	prepared once[*adtrack.Prepared]
}

// AdNetwork returns the default chaos-sized ad network.
func AdNetwork() *AdNetworkWorkload {
	return &AdNetworkWorkload{Query: dataflow.CAMPAIGN, AdServers: 2, EntriesPerServer: 60, Requests: 6}
}

// Name implements Workload.
func (w *AdNetworkWorkload) Name() string { return "adtrack-network" }

// Graph implements Workload.
func (w *AdNetworkWorkload) Graph() (*dataflow.Graph, error) {
	return adtrack.Graph(w.Query, adtrack.ColCampaign)
}

// Supports implements Workload.
func (w *AdNetworkWorkload) Supports(mech dataflow.Coordination) bool {
	_, ok := adtrack.RegimeFor(mech)
	return ok
}

// Run implements Workload.
func (w *AdNetworkWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	cfg, prepared, err := w.config(seed, plan, mech)
	if err != nil {
		return Outcome{}, err
	}
	res, err := adtrack.Run(cfg, prepared)
	if err != nil {
		return Outcome{}, err
	}
	return adNetworkOutcome(cfg, res), nil
}

// config returns the ad-network configuration of one schedule and the plan
// every schedule shares.
func (w *AdNetworkWorkload) config(seed int64, plan FaultPlan, mech dataflow.Coordination) (adtrack.Config, *adtrack.Prepared, error) {
	regime, ok := adtrack.RegimeFor(mech)
	if !ok {
		return adtrack.Config{}, nil, fmt.Errorf("adtrack: unsupported mechanism %s", mech)
	}
	cfg := adtrack.DefaultConfig(w.AdServers, regime, false)
	cfg.Seed = seed
	cfg.Workload.EntriesPerServer = w.EntriesPerServer
	cfg.Workload.BatchSize = 10
	cfg.Workload.Sleep = 40 * sim.Millisecond
	// Concentrate the click stream on few (campaign, ad) groups so group
	// counts grow within every burst — a request racing in-flight clicks
	// then reads different counts at different replicas.
	cfg.Workload.Campaigns = 2
	cfg.Workload.AdsPerCampaign = 2
	cfg.Requests = w.Requests
	// Requests land exactly on the burst cadence so answers race in-flight
	// clicks; in the gaps between bursts every replica would agree.
	cfg.RequestSpacing = cfg.Workload.Sleep
	cfg.Link = plan.Shape(cfg.Link)
	cfg.Sequencer = plan.shapeSequencer(cfg.Sequencer)
	cfg.Quorum.Delivery = plan.Shape(cfg.Quorum.Delivery)

	// The plan is a function of cfg's workload, query and requests only —
	// none of which a schedule's seed, regime or fault plan touches.
	prepared, err := w.prepared.get(func() (*adtrack.Prepared, error) { return adtrack.Prepare(cfg) })
	return cfg, prepared, err
}

// adNetworkOutcome is what a run's replicas answered and hold.
func adNetworkOutcome(cfg adtrack.Config, res *adtrack.Result) Outcome {
	// Per-replica answers keyed by request id; entries sorted by request
	// id so only content distinguishes traces.
	answers := make([]map[string][]string, cfg.Replicas)
	for i := range answers {
		answers[i] = map[string][]string{}
	}
	for _, resp := range res.Responses {
		reqid := bloom.AsString(resp.Row[1])
		answers[resp.Replica][reqid] = append(answers[resp.Replica][reqid], resp.Row.String())
	}
	out := Outcome{}
	for i := 0; i < cfg.Replicas; i++ {
		trace := make([]string, 0, len(answers[i]))
		for _, id := range slices.Sorted(maps.Keys(answers[i])) {
			trace = append(trace, id+"→{"+canonSet(answers[i][id])+"}")
		}
		final := "state:" + res.LogDigests[i] + " held:" + strconv.Itoa(res.Held)
		out.Replicas = append(out.Replicas, ReplicaOutcome{Trace: trace, Final: final})
	}
	return out
}
