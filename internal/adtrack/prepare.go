package adtrack

import (
	"fmt"
	"maps"
	"slices"

	"blazes/internal/bloom"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// Prepared is the half of a run that is a function of the workload alone:
// the click and request plans, every record's Bloom row boxed once, the
// producer sets and the validated Report module. Seed, regime, links and
// costs are not in it, so one Prepared serves every schedule of a sweep —
// concurrently: Prepare is its only writer, and Run reads it and hands out
// pointers into it that nothing writes through.
type Prepared struct {
	from      preparedFrom
	module    *bloom.Module
	bursts    []Burst
	requests  []record
	producers map[string][]string
	// clicks counts each campaign's clicks, campaigns sorted: what a sealing
	// replica buffers of each partition.
	clicks []campaignClicks
}

// campaignClicks is how many clicks one campaign has.
type campaignClicks struct {
	campaign string
	n        int
}

// preparedFrom is what a Prepared was built from; Run refuses a plan
// prepared from anything else.
type preparedFrom struct {
	workload  Workload
	query     dataflow.AdQuery
	threshold int64
	requests  int
	spacing   sim.Time
}

func (cfg Config) preparedFrom() preparedFrom {
	return preparedFrom{cfg.Workload, cfg.Query, cfg.Threshold, cfg.Requests, cfg.RequestSpacing}
}

// record is one click or request as the regimes route it and the replicas
// ingest it: the row, and the fields coordination looks at.
type record struct {
	row      bloom.Row
	campaign string
	request  bool
	at       sim.Time // a request's send time; a click goes with its burst
}

// Prepare builds the seed-invariant half of cfg's runs. Run calls it for a
// caller that prepared nothing, so there is one way a plan is made.
func Prepare(cfg Config) (*Prepared, error) {
	mod, err := ReportModule(cfg.Query, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	p := &Prepared{from: cfg.preparedFrom(), module: mod, bursts: cfg.Workload.Plan(), producers: cfg.Workload.Producers()}
	clicks := map[string]int{}
	for i := range p.bursts {
		b := &p.bursts[i]
		b.records = make([]record, len(b.Clicks))
		for j, c := range b.Clicks {
			b.records[j] = record{row: c.Row(), campaign: c.Campaign}
			clicks[c.Campaign]++
		}
	}
	for _, campaign := range slices.Sorted(maps.Keys(clicks)) {
		p.clicks = append(p.clicks, campaignClicks{campaign, clicks[campaign]})
	}
	for _, req := range cfg.Workload.RequestPlan(cfg.Requests, cfg.RequestSpacing) {
		p.requests = append(p.requests, record{row: req.Row(), campaign: req.Campaign, request: true, at: req.At})
	}
	return p, nil
}

// planFor returns the caller's plan, checked against cfg, or a fresh one.
func planFor(cfg Config, prepared []*Prepared) (*Prepared, error) {
	if len(prepared) == 0 || prepared[0] == nil {
		return Prepare(cfg)
	}
	if prepared[0].from != cfg.preparedFrom() {
		return nil, fmt.Errorf("adtrack: the plan was prepared from %+v, the run asks for %+v", prepared[0].from, cfg.preparedFrom())
	}
	return prepared[0], nil
}
