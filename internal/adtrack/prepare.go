package adtrack

import (
	"fmt"

	"blazes/internal/bloom"
	"blazes/internal/coord"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// Prepared is the half of a run that is a function of the workload alone:
// the message list the coordination installer carries, every click's and
// request's Bloom row boxed once, and the validated Report module. Seed,
// regime, links and costs are not in it, so one Prepared serves every
// schedule of a sweep — concurrently: Prepare is its only writer, and Run
// only reads it.
type Prepared struct {
	from   preparedFrom
	module *bloom.Module
	// msgs is every burst in Plan's order — its clicks, each from its ad
	// server into its campaign's partition, then the campaigns the burst
	// seals — and then the requests, each a read of its campaign. No hop
	// of the ad network retransmits, so every message is Once. rows[i] is
	// msgs[i]'s row; a seal has none.
	msgs []coord.Message
	rows []bloom.Row
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

// Prepare builds the seed-invariant half of cfg's runs. Run calls it for a
// caller that prepared nothing, so there is one way a plan is made.
func Prepare(cfg Config) (*Prepared, error) {
	mod, err := ReportModule(cfg.Query, cfg.Threshold)
	if err != nil {
		return nil, err
	}
	p := &Prepared{from: cfg.preparedFrom(), module: mod}
	for _, b := range cfg.Workload.Plan() {
		for _, c := range b.Clicks {
			p.msgs = append(p.msgs, coord.Message{At: b.At, Producer: b.Server, Partition: c.Campaign, Once: true})
			p.rows = append(p.rows, c.Row())
		}
		for _, campaign := range b.Seals {
			p.msgs = append(p.msgs, coord.Message{At: b.At, Producer: b.Server, Partition: campaign, Seal: true, Once: true})
			p.rows = append(p.rows, nil)
		}
	}
	for _, req := range cfg.Workload.RequestPlan(cfg.Requests, cfg.RequestSpacing) {
		p.msgs = append(p.msgs, coord.Message{At: req.At, Partition: req.Campaign, Read: true, Once: true})
		p.rows = append(p.rows, req.Row())
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
