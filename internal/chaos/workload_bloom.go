package chaos

import (
	"fmt"
	"sort"
	"strconv"

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

	// prepared is the plan the fields above determine; set them before the
	// first Run.
	prepared once[*bloomPlan]
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

// deliver hands the replica one click, or one analyst request and runs the
// timestep that answers it, folding the response rows into the per-request
// answer set.
func (r *bloomReplica) deliver(m *bloomMsg) error {
	if !m.request {
		return r.node.Deliver("click", m.row)
	}
	if err := r.node.Deliver("request", m.row); err != nil {
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
			reqid := bloom.AsString(resp[1])
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
		out = append(out, id+"→{"+canonSet(rows)+"}")
	}
	return out
}

// finalDigest drains the node, digests its persistent click log, and
// re-poses every request at quiescence — the eventual answers a confluent
// (or properly coordinated) replica must agree on.
func (r *bloomReplica) finalDigest(p *bloomPlan) (string, error) {
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
	return digest("log{"+r.node.Render("clicklog")+"}", "final{"+canonSet(entries)+"}"), nil
}

// bloomMsg is one click or request of the plan, its row boxed once, with
// the fields the mechanisms route on.
type bloomMsg struct {
	row      bloom.Row
	request  bool
	id       string   // a request's id
	campaign string   // the partition sealing gates on
	server   string   // a click's producer, the FIFO stream it rides
	at       sim.Time // send time
}

// bloomSeal is one producer's punctuation of one campaign, sent a
// millisecond after its last click for it.
type bloomSeal struct {
	coord.Punctuation
	at sim.Time
}

// bloomPlan is the half of every run that is a function of the workload
// alone — identical for every seed, plan and mechanism: the logical workload
// is fixed; only delivery varies. Runs share it read-only.
type bloomPlan struct {
	mod              *bloom.Module
	clicks, requests []bloomMsg
	// probes re-pose the requests at quiescence under ids of their own.
	probes []bloomMsg
	// sequenced is M1's preordained total order: clicks in workload order
	// with requests interleaved at fixed positions.
	sequenced          []*bloomMsg
	campaigns, servers []string
	seals              []bloomSeal
}

// plan returns the prepared plan, building it on first use.
func (w *BloomReportWorkload) plan() (*bloomPlan, error) {
	return w.prepared.get(func() (*bloomPlan, error) {
		mod, err := adtrack.ReportModule(w.Query, w.Threshold)
		if err != nil {
			return nil, err
		}
		const span = 60 * sim.Millisecond
		p := &bloomPlan{mod: mod}
		for c := 0; c < w.Campaigns; c++ {
			p.campaigns = append(p.campaigns, adtrack.CampaignName(c))
		}
		// lastFor tracks each server's final send time per campaign so the
		// punctuation follows its stream.
		lastFor := make([]sim.Time, w.Campaigns)
		for srv := 0; srv < w.Servers; srv++ {
			server := adtrack.ServerName(srv)
			p.servers = append(p.servers, server)
			clear(lastFor)
			for i := 0; i < w.ClicksPerServer; i++ {
				c := adtrack.Click{
					ID:       adtrack.AdName(i%w.Campaigns, i%w.AdsPerCampaign),
					Campaign: p.campaigns[i%w.Campaigns],
					Window:   "w0",
					Server:   server,
					Seq:      int64(srv*w.ClicksPerServer + i),
				}
				// Each server's stream is paced across the span.
				at := span * sim.Time(i) / sim.Time(w.ClicksPerServer+1)
				lastFor[i%w.Campaigns] = at
				p.clicks = append(p.clicks, bloomMsg{row: c.Row(), campaign: c.Campaign, server: server, at: at})
			}
			for c, campaign := range p.campaigns {
				p.seals = append(p.seals, bloomSeal{coord.Punctuation{Partition: campaign, Producer: server}, lastFor[c] + sim.Millisecond})
			}
		}
		for i := 0; i < w.Requests; i++ {
			req := adtrack.Request{
				ID:       adtrack.AdName(i%w.Campaigns, i%w.AdsPerCampaign),
				Campaign: p.campaigns[i%w.Campaigns],
				Window:   "w0",
				ReqID:    "q" + strconv.Itoa(i),
			}
			at := 10*sim.Millisecond + span*sim.Time(i)/sim.Time(w.Requests)
			p.requests = append(p.requests, bloomMsg{row: req.Row(), request: true, id: req.ReqID, campaign: req.Campaign, at: at})
			req.ReqID = "fq" + strconv.Itoa(i)
			p.probes = append(p.probes, bloomMsg{row: req.Row(), request: true, id: req.ReqID})
		}
		stride := len(p.clicks)/(len(p.requests)+1) + 1
		ri := 0
		for i := range p.clicks {
			p.sequenced = append(p.sequenced, &p.clicks[i])
			if (i+1)%stride == 0 && ri < len(p.requests) {
				p.sequenced = append(p.sequenced, &p.requests[ri])
				ri++
			}
		}
		for ; ri < len(p.requests); ri++ {
			p.sequenced = append(p.sequenced, &p.requests[ri])
		}
		return p, nil
	})
}

// Run implements Workload.
func (w *BloomReportWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	p, err := w.plan()
	if err != nil {
		return Outcome{}, err
	}
	s := sim.New(seed)
	link := plan.Shape(sim.LinkConfig{MinDelay: 200 * sim.Microsecond, MaxDelay: 6 * sim.Millisecond})

	// NewNode only reads its module, so the replicas (of every run) share one.
	reps := make([]*bloomReplica, w.Replicas)
	for i := range reps {
		r, err := newBloomReplica("report"+strconv.Itoa(i), p.mod)
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
		for _, msgs := range [][]bloomMsg{p.clicks, p.requests} {
			for i := range msgs {
				m := &msgs[i]
				for _, r := range reps {
					s.At(arrival(m.at), func() { fail(r.deliver(m)) })
					if dup() {
						s.At(arrival(m.at), func() { fail(r.deliver(m)) })
					}
				}
			}
		}

	case dataflow.CoordSequenced:
		// M1: a preordained total order, identical in every run.
		at := sim.Time(0)
		for _, m := range p.sequenced {
			at += 200 * sim.Microsecond
			s.At(at, func() {
				for _, r := range reps {
					fail(r.deliver(m))
				}
			})
		}

	case dataflow.CoordDynamicOrder:
		cfg := coord.DefaultSequencer
		cfg.SubmitDelay = plan.Shape(cfg.SubmitDelay)
		cfg.DeliverDelay = plan.Shape(cfg.DeliverDelay)
		seq := coord.NewSequencer(s, cfg)
		for _, r := range reps {
			seq.Subscribe(func(m coord.Sequenced) { fail(r.deliver(m.Msg.(*bloomMsg))) })
		}
		for _, msgs := range [][]bloomMsg{p.clicks, p.requests} {
			for i := range msgs {
				s.At(msgs[i].at, func() { seq.Submit(&msgs[i]) })
			}
		}

	case dataflow.CoordSealed:
		// M3: per-campaign partitions; every server punctuates a campaign
		// after its last record for it, seals ride the server's FIFO
		// stream, and requests are held until their campaign's vote is
		// unanimous.
		registry := coord.NewRegistry(s, link)
		for _, campaign := range p.campaigns {
			for _, server := range p.servers {
				registry.Register(campaign, server)
			}
		}
		for _, r := range reps {
			held := map[string][]*bloomMsg{}
			tracker := coord.NewSealTracker(func(partition string, buffered []any) {
				for _, b := range buffered {
					fail(r.deliver(b.(*bloomMsg)))
				}
				for _, req := range held[partition] {
					fail(r.deliver(req))
				}
				delete(held, partition)
			})
			for _, campaign := range p.campaigns {
				registry.Lookup(campaign, func(producers []string) {
					tracker.SetExpected(campaign, producers)
				})
			}
			fifo := newFifoLink(s, link)
			for i := range p.clicks {
				c := &p.clicks[i]
				fifo.deliver(c.server, c.at, func() { tracker.Data(c.campaign, c) })
				if dup() {
					fifo.deliver(c.server, c.at, func() { tracker.Data(c.campaign, c) })
				}
			}
			for _, seal := range p.seals {
				fifo.deliver(seal.Producer, seal.at, func() { tracker.Seal(seal.Punctuation) })
			}
			for i := range p.requests {
				req := &p.requests[i]
				s.At(arrival(req.at), func() {
					if tracker.Sealed(req.campaign) {
						fail(r.deliver(req))
					} else {
						held[req.campaign] = append(held[req.campaign], req)
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
		final, err := r.finalDigest(p)
		if err != nil {
			return Outcome{}, err
		}
		out.Replicas = append(out.Replicas, ReplicaOutcome{Trace: r.trace(), Final: final})
	}
	return out, nil
}
