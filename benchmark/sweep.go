package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/chaos"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// sweepGeneratedN is the size of the seeded generated topology that joins
// the fixed suite, so that the benchmark seed reaches this workload too.
const sweepGeneratedN = 40

// sweepWorkload is the verification pipeline: one op is one pass of
// plan → run → fold → assemble over the chaos suite under the default fault
// plans, then a shrink of every stripped cell that showed an anomaly.
type sweepWorkload struct {
	e     env
	suite []chaos.Workload
	// first holds the first pass's counts; schedules are seeded, so every
	// pass must repeat them.
	first *sweepCounts
}

// sweepCounts is what one pass did, as counts.
type sweepCounts struct {
	cells, anomalous, traces, schedules int
}

// substrate names the layer a suite workload runs on, for the per-substrate
// throughput split.
func substrate(workload string) string {
	switch {
	case strings.HasPrefix(workload, "wordcount"):
		return "wordcount"
	case strings.HasPrefix(workload, "bloom"):
		return "bloom"
	case strings.HasPrefix(workload, "adtrack"):
		return "adtrack"
	default:
		return "synthetic" // the synthetic replicas and the generated topology
	}
}

func (w *sweepWorkload) setup(e env, rec *recorder) error {
	w.e = e
	w.suite = append(chaos.Suite(), chaos.Generated(sweepGeneratedN, e.seed))
	return w.op(0, nil)
}

func (w *sweepWorkload) op(i int, rec *recorder) error {
	ctx := context.Background()
	root := rec.begin("sweep.pass", -1, i)
	defer rec.end(root)
	var counts sweepCounts
	runTime := map[string]time.Duration{}
	schedules := map[string]int{}
	passStart := time.Now()
	for _, wl := range w.suite {
		var plan *chaos.CheckPlan
		var err error
		rec.span("chaos.plan", root, i, func() {
			plan, err = chaos.PlanCheck(wl, chaos.Config{Seeds: w.e.scale.sweepSeeds, Parallelism: 1})
		})
		if err != nil {
			return err
		}
		sweeps := make([]chaos.Sweep, len(plan.Cells))
		outcomes := make([][]chaos.Outcome, len(plan.Cells))
		for k, cell := range plan.Cells {
			start := time.Now()
			rec.span("chaos.run", root, i, func() { outcomes[k], err = chaos.RunCell(ctx, wl, cell, nil, 1, cell.Seeds+1) })
			if err != nil {
				return err
			}
			runTime[substrate(wl.Name())] += time.Since(start)
			schedules[substrate(wl.Name())] += cell.Seeds
			rec.span("chaos.fold", root, i, func() { sweeps[k] = chaos.FoldCell(cell, outcomes[k]) })
		}
		var rep *chaos.Report
		rec.span("chaos.assemble", root, i, func() { rep, err = plan.Assemble(sweeps) })
		if err != nil {
			return err
		}
		if !rep.Holds {
			return fmt.Errorf("the two-sided guarantee does not hold:\n%s", rep.Summary())
		}
		counts.cells += len(plan.Cells)
		for k, cell := range plan.Cells {
			if !cell.Stripped || !sweeps[k].Observed.Any() {
				continue
			}
			counts.anomalous++
			rec.span("chaos.shrink", root, i, func() { _, err = chaos.ShrinkCell(ctx, wl, cell, outcomes[k]) })
			if err != nil {
				return err
			}
			counts.traces++
		}
	}
	pass := time.Since(passStart)

	var run time.Duration
	for sub, d := range runTime {
		counts.schedules += schedules[sub]
		run += d
		rec.observe("chaos."+sub+"_schedules_per_s", float64(schedules[sub])/d.Seconds())
	}
	rec.observe("chaos.run_s", run.Seconds())
	rec.observe("chaos.schedules_per_s", float64(counts.schedules)/pass.Seconds())
	rec.observe("chaos.cells", float64(counts.cells))
	rec.observe("chaos.anomalous_cells", float64(counts.anomalous))
	rec.observe("chaos.traces", float64(counts.traces))
	if w.first == nil {
		w.first = &counts
	} else if *w.first != counts {
		return fmt.Errorf("pass %d counted %+v, the first pass %+v", i, counts, *w.first)
	}
	return nil
}

func (w *sweepWorkload) run(budget time.Duration, rec *recorder) *result {
	return serial(budget, evenMix, 1, func(i int) (string, error) { return "", w.op(i, rec) }, nil)
}

// probe calls the substrates under the sweep directly: the Bloom runtime on
// the CAMPAIGN standing query over a 1k-row click log, and the ad network
// under each coordination regime at the size the chaos suite runs it.
func (w *sweepWorkload) probe(rec *recorder) error {
	for i := 0; i < w.e.scale.probeN; i++ {
		if err := probeBloom(rec, i == 0); err != nil {
			return err
		}
	}
	cw := chaos.AdNetwork()
	for _, regime := range []adtrack.Regime{adtrack.Uncoordinated, adtrack.Ordered, adtrack.Sealed, adtrack.Quorum} {
		cfg := adtrack.DefaultConfig(cw.AdServers, regime, false)
		cfg.Seed = w.e.seed
		cfg.Workload.EntriesPerServer = cw.EntriesPerServer
		cfg.Workload.BatchSize = 10
		cfg.Workload.Sleep = 40 * sim.Millisecond
		cfg.Workload.Campaigns = 2
		cfg.Workload.AdsPerCampaign = 2
		cfg.Requests = cw.Requests
		cfg.RequestSpacing = cfg.Workload.Sleep
		var res *adtrack.Result
		var err error
		for i := 0; i < 5; i++ {
			rec.span("adtrack.run_"+regime.String(), -1, -1, func() { res, err = adtrack.Run(cfg) })
			if err != nil {
				return err
			}
		}
		switch regime {
		case adtrack.Ordered:
			rec.observe("coord.sequencer_messages", float64(res.CoordMessages))
		case adtrack.Quorum:
			rec.observe("coord.quorum_messages", float64(res.CoordMessages))
		}
	}
	return nil
}

// probeBloom compiles the CAMPAIGN module into a node, delivers a 1k-row
// click log and answers one request; withTicks repeats the request tick.
func probeBloom(rec *recorder, withTicks bool) error {
	mod, err := adtrack.ReportModule(dataflow.CAMPAIGN, 100)
	if err != nil {
		return err
	}
	var n *bloom.Node
	rec.span("bloom.newnode", -1, -1, func() { n, err = bloom.NewNode("bench", mod) })
	if err != nil {
		return err
	}
	wl := adtrack.DefaultWorkload(2, false)
	wl.EntriesPerServer = 500
	var rows []bloom.Row
	for _, burst := range wl.Plan() {
		for _, c := range burst.Clicks {
			rows = append(rows, c.Row())
		}
	}
	start := time.Now()
	if err := n.Deliver("click", rows...); err != nil {
		return err
	}
	if _, err := n.Tick(); err != nil {
		return err
	}
	rec.observe("bloom.deliver_krows_per_s", float64(len(rows))/1e3/time.Since(start).Seconds())
	if !withTicks {
		return nil
	}
	req := adtrack.Request{ID: adtrack.AdName(0, 0), Campaign: adtrack.CampaignName(0), Window: "w0", ReqID: "r"}
	for i := 0; i < 200; i++ {
		rec.span("bloom.tick", -1, -1, func() {
			if err = n.Deliver("request", req.Row()); err == nil {
				_, err = n.Tick()
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// verify adds one check to those every pass made (every report holds, the
// counts repeat): a sweep in which no stripped cell misbehaved would hold
// vacuously.
func (w *sweepWorkload) verify(*recorder) error {
	if w.first == nil || w.first.anomalous == 0 {
		return fmt.Errorf("no stripped cell showed an anomaly: the sweep is vacuous")
	}
	return nil
}

func (w *sweepWorkload) close() error { return nil }
