package chaos

import (
	"fmt"
	"sort"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/coord"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/sim"
)

// BloomReportWorkload runs replicas of the paper's reporting-server Bloom
// module (Figure 6) under chaotic delivery, with the component annotations
// extracted automatically by the white-box analyzer — so the guarantee is
// checked end to end from rules, not from hand annotations. The query
// selects the variant:
//
//	THRESH   — monotone threshold: confluent, the harness runs it bare;
//	POOR     — non-monotone count with no compatible seal: the analyzer
//	           recommends ordering (M2, or M1 when the sequencing
//	           strategy is preferred);
//	CAMPAIGN — non-monotone count whose gate matches a campaign seal on
//	           the click source: the analyzer recommends sealing (M3).
//
// Each replica is one bloom.Node; ad servers stream clicks and analysts
// pose requests. A request triggers a timestep and its answers are
// collected per request id; the final digest combines the persistent click
// log with the answers every replica gives at quiescence.
type BloomReportWorkload struct {
	Query           dataflow.AdQuery
	Threshold       int64
	Replicas        int
	Servers         int
	ClicksPerServer int
	Campaigns       int
	AdsPerCampaign  int
	Requests        int
}

// ReplicatedReport returns the default chaos-sized reporting server for the
// given query.
func ReplicatedReport(query dataflow.AdQuery) *BloomReportWorkload {
	return &BloomReportWorkload{
		Query:           query,
		Threshold:       8,
		Replicas:        2,
		Servers:         2,
		ClicksPerServer: 30,
		Campaigns:       3,
		AdsPerCampaign:  2,
		Requests:        6,
	}
}

// Name implements Workload.
func (w *BloomReportWorkload) Name() string { return "bloom-report-" + string(w.Query) }

// sealKey returns the seal attributes of the click source (CAMPAIGN only).
func (w *BloomReportWorkload) sealKey() []string {
	if w.Query == dataflow.CAMPAIGN {
		return []string{adtrack.ColCampaign}
	}
	return nil
}

// Graph implements Workload: the Report component alone, annotations
// extracted from its rules.
func (w *BloomReportWorkload) Graph() (*dataflow.Graph, error) {
	mod, err := adtrack.ReportModule(w.Query, w.Threshold)
	if err != nil {
		return nil, err
	}
	ra, err := bloom.Analyze(mod)
	if err != nil {
		return nil, err
	}
	g := dataflow.NewGraph(w.Name())
	ra.Component(g, true)
	clicks := g.Source("clicks", "Report", "click")
	if key := w.sealKey(); len(key) > 0 {
		clicks.Seal = fd.NewAttrSet(key...)
	}
	g.Source("requests", "Report", "request")
	g.Sink("responses", "Report", "response")
	return g, nil
}

// Supports implements Workload.
func (w *BloomReportWorkload) Supports(mech dataflow.Coordination) bool {
	switch mech {
	case dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder:
		return true
	case dataflow.CoordSealed:
		return len(w.sealKey()) > 0
	}
	return false
}

// bloomReplica drives one node and collects its per-request answers.
type bloomReplica struct {
	node *bloom.Node
	// answers maps request id → deduped answer rows.
	answers map[string]map[string]bool
	order   []string
}

func newBloomReplica(id string, mod *bloom.Module) (*bloomReplica, error) {
	node, err := bloom.NewNode(id, mod)
	if err != nil {
		return nil, err
	}
	return &bloomReplica{node: node, answers: map[string]map[string]bool{}}, nil
}

func (r *bloomReplica) click(row bloom.Row) error { return r.node.Deliver("click", row) }

// request delivers one analyst request and runs the timestep that answers
// it, folding the response rows into the per-request answer set.
func (r *bloomReplica) request(row bloom.Row) error {
	if err := r.node.Deliver("request", row); err != nil {
		return err
	}
	em, err := r.node.Tick()
	if err != nil {
		return err
	}
	for _, e := range em {
		if e.Collection != "response" {
			continue
		}
		for _, resp := range e.Rows {
			reqid := fmt.Sprint(resp[1])
			set, ok := r.answers[reqid]
			if !ok {
				set = map[string]bool{}
				r.answers[reqid] = set
				r.order = append(r.order, reqid)
			}
			set[resp.String()] = true
		}
	}
	return nil
}

// trace canonicalizes the answers: one entry per answered request, sorted
// by request id, each listing its answer rows in canonical order.
func (r *bloomReplica) trace() []string {
	ids := append([]string{}, r.order...)
	sort.Strings(ids)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		rows := make([]string, 0, len(r.answers[id]))
		for row := range r.answers[id] {
			rows = append(rows, row)
		}
		out = append(out, fmt.Sprintf("%s→{%s}", id, canonSet(rows)))
	}
	return out
}

// finalDigest drains the node, digests its persistent click log, and
// re-poses every request at quiescence — the eventual answers a confluent
// (or properly coordinated) replica must agree on.
func (r *bloomReplica) finalDigest(requests []adtrack.Request) (string, error) {
	if r.node.Pending() {
		if _, err := r.node.Tick(); err != nil {
			return "", err
		}
	}
	logRows := r.node.Rows("clicklog")
	rows := make([]string, 0, len(logRows))
	for _, row := range logRows {
		rows = append(rows, row.String())
	}
	quiesced := newBloomQuiescentProbe()
	for i, req := range requests {
		probe := req
		probe.ReqID = fmt.Sprintf("fq%d", i)
		if err := r.node.Deliver("request", probe.Row()); err != nil {
			return "", err
		}
		em, err := r.node.Tick()
		if err != nil {
			return "", err
		}
		quiesced.collect(probe.ReqID, em)
	}
	return digest("log{"+canonSet(rows)+"}", "final{"+canonSet(quiesced.entries)+"}"), nil
}

type bloomQuiescentProbe struct{ entries []string }

func newBloomQuiescentProbe() *bloomQuiescentProbe { return &bloomQuiescentProbe{} }

func (p *bloomQuiescentProbe) collect(reqid string, em []bloom.Emission) {
	var rows []string
	for _, e := range em {
		if e.Collection != "response" {
			continue
		}
		for _, resp := range e.Rows {
			if fmt.Sprint(resp[1]) == reqid {
				rows = append(rows, resp.String())
			}
		}
	}
	p.entries = append(p.entries, fmt.Sprintf("%s→{%s}", reqid, canonSet(rows)))
}

// plan returns the click stream and request schedule (identical for every
// seed: the logical workload is fixed; only delivery varies).
func (w *BloomReportWorkload) plan() (clicks []adtrack.Click, requests []adtrack.Request, span sim.Time) {
	span = 60 * sim.Millisecond
	for srv := 0; srv < w.Servers; srv++ {
		for i := 0; i < w.ClicksPerServer; i++ {
			campaign := i % w.Campaigns
			clicks = append(clicks, adtrack.Click{
				ID:       adtrack.AdName(campaign, i%w.AdsPerCampaign),
				Campaign: adtrack.CampaignName(campaign),
				Window:   "w0",
				Server:   adtrack.ServerName(srv),
				Seq:      int64(srv*w.ClicksPerServer + i),
			})
		}
	}
	for i := 0; i < w.Requests; i++ {
		campaign := i % w.Campaigns
		requests = append(requests, adtrack.Request{
			ID:       adtrack.AdName(campaign, i%w.AdsPerCampaign),
			Campaign: adtrack.CampaignName(campaign),
			Window:   "w0",
			ReqID:    fmt.Sprintf("q%d", i),
			At:       10*sim.Millisecond + span*sim.Time(i)/sim.Time(w.Requests),
		})
	}
	return clicks, requests, span
}

// clickTime paces one server's stream across the span.
func clickTime(span sim.Time, perServer, idx int) sim.Time {
	return span * sim.Time(idx) / sim.Time(perServer+1)
}

// Run implements Workload.
func (w *BloomReportWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	s := sim.New(seed)
	link := plan.Shape(sim.LinkConfig{MinDelay: 200 * sim.Microsecond, MaxDelay: 6 * sim.Millisecond})
	clicks, requests, span := w.plan()

	// NewNode only reads its module, so the replicas share one.
	mod, err := adtrack.ReportModule(w.Query, w.Threshold)
	if err != nil {
		return Outcome{}, err
	}
	reps := make([]*bloomReplica, w.Replicas)
	for i := range reps {
		r, err := newBloomReplica(fmt.Sprintf("report%d", i), mod)
		if err != nil {
			return Outcome{}, err
		}
		reps[i] = r
	}

	var runErr error
	fail := func(err error) {
		if err != nil && runErr == nil {
			runErr = err
		}
	}
	arrival := func(sent sim.Time) sim.Time { return link.Release(sent, sent+link.Delay(s)) }
	dup := func() bool { return link.DupProb > 0 && s.Rand().Float64() < link.DupProb }

	switch mech {
	case dataflow.CoordNone:
		for ci, c := range clicks {
			row := c.Row()
			at := clickTime(span, w.ClicksPerServer, ci%w.ClicksPerServer)
			for _, r := range reps {
				r := r
				s.At(arrival(at), func() { fail(r.click(row)) })
				if dup() {
					s.At(arrival(at), func() { fail(r.click(row)) })
				}
			}
		}
		for _, req := range requests {
			row := req.Row()
			for _, r := range reps {
				r := r
				s.At(arrival(req.At), func() { fail(r.request(row)) })
				if dup() {
					s.At(arrival(req.At), func() { fail(r.request(row)) })
				}
			}
		}

	case dataflow.CoordSequenced:
		// M1: a preordained total order, identical in every run: clicks in
		// workload order with requests interleaved at fixed positions.
		type step struct {
			click *adtrack.Click
			req   *adtrack.Request
		}
		var order []step
		stride := len(clicks)/(len(requests)+1) + 1
		ri := 0
		for i := range clicks {
			order = append(order, step{click: &clicks[i]})
			if (i+1)%stride == 0 && ri < len(requests) {
				order = append(order, step{req: &requests[ri]})
				ri++
			}
		}
		for ; ri < len(requests); ri++ {
			order = append(order, step{req: &requests[ri]})
		}
		at := sim.Time(0)
		for _, st := range order {
			st := st
			at += 200 * sim.Microsecond
			s.At(at, func() {
				for _, r := range reps {
					if st.click != nil {
						fail(r.click(st.click.Row()))
					} else {
						fail(r.request(st.req.Row()))
					}
				}
			})
		}

	case dataflow.CoordDynamicOrder:
		cfg := coord.DefaultSequencer
		cfg.SubmitDelay = plan.Shape(cfg.SubmitDelay)
		cfg.DeliverDelay = plan.Shape(cfg.DeliverDelay)
		seq := coord.NewSequencer(s, cfg)
		for _, r := range reps {
			r := r
			seq.Subscribe(func(m coord.Sequenced) {
				switch v := m.Msg.(type) {
				case adtrack.Click:
					fail(r.click(v.Row()))
				case adtrack.Request:
					fail(r.request(v.Row()))
				}
			})
		}
		for ci, c := range clicks {
			c := c
			s.At(clickTime(span, w.ClicksPerServer, ci%w.ClicksPerServer), func() { seq.Submit(c) })
		}
		for _, req := range requests {
			req := req
			s.At(req.At, func() { seq.Submit(req) })
		}

	case dataflow.CoordSealed:
		// M3: per-campaign partitions; every server punctuates a campaign
		// after its last record for it, seals ride the server's FIFO
		// stream, and requests are held until their campaign's vote is
		// unanimous.
		registry := coord.NewRegistry(s, link)
		for c := 0; c < w.Campaigns; c++ {
			for srv := 0; srv < w.Servers; srv++ {
				registry.Register(adtrack.CampaignName(c), adtrack.ServerName(srv))
			}
		}
		for ri := range reps {
			r := reps[ri]
			held := map[string][]adtrack.Request{}
			tracker := coord.NewSealTracker(func(partition string, buffered []any) {
				for _, b := range buffered {
					fail(r.click(b.(adtrack.Click).Row()))
				}
				for _, req := range held[partition] {
					fail(r.request(req.Row()))
				}
				delete(held, partition)
			})
			for c := 0; c < w.Campaigns; c++ {
				campaign := adtrack.CampaignName(c)
				registry.Lookup(campaign, func(producers []string) {
					tracker.SetExpected(campaign, producers)
				})
			}
			fifo := newFifoLink(s, link)
			// lastFor tracks each server's final send time per campaign so
			// the punctuation follows its stream.
			lastFor := map[string]sim.Time{}
			for ci, c := range clicks {
				c := c
				at := clickTime(span, w.ClicksPerServer, ci%w.ClicksPerServer)
				key := c.Server + "/" + c.Campaign
				if at > lastFor[key] {
					lastFor[key] = at
				}
				fifo.deliver(c.Server, at, func() { tracker.Data(c.Campaign, c) })
				if dup() {
					fifo.deliver(c.Server, at, func() { tracker.Data(c.Campaign, c) })
				}
			}
			for srv := 0; srv < w.Servers; srv++ {
				for c := 0; c < w.Campaigns; c++ {
					campaign := adtrack.CampaignName(c)
					server := adtrack.ServerName(srv)
					fifo.deliver(server, lastFor[server+"/"+campaign]+sim.Millisecond, func() {
						tracker.Seal(coord.Punctuation{Partition: campaign, Producer: server})
					})
				}
			}
			for _, req := range requests {
				req := req
				s.At(arrival(req.At), func() {
					if tracker.Sealed(req.Campaign) {
						fail(r.request(req.Row()))
					} else {
						held[req.Campaign] = append(held[req.Campaign], req)
					}
				})
			}
		}

	default:
		return Outcome{}, fmt.Errorf("bloom-report: unsupported mechanism %s", mech)
	}

	s.Run()
	if runErr != nil {
		return Outcome{}, runErr
	}
	out := Outcome{}
	for _, r := range reps {
		final, err := r.finalDigest(requests)
		if err != nil {
			return Outcome{}, err
		}
		out.Replicas = append(out.Replicas, ReplicaOutcome{Trace: r.trace(), Final: final})
	}
	return out, nil
}
