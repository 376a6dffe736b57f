package chaos

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

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
func (r *bloomReplica) deliver(request bool, row bloom.Row) error {
	if !request {
		return r.node.Deliver("click", row)
	}
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
		rows := slices.Sorted(maps.Keys(r.answers[id]))
		out = append(out, id+"→{"+strings.Join(rows, ",")+"}")
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

// bloomProbe re-poses one request at quiescence, under an id of its own.
type bloomProbe struct {
	row bloom.Row
	id  string
}

// bloomPlan is the half of every run that is a function of the workload
// alone — identical for every seed, plan and mechanism: the logical workload
// is fixed; only delivery varies. Runs share it read-only.
type bloomPlan struct {
	mod *bloom.Module
	// msgs are the clicks, then the requests: a click rides its server's
	// stream and belongs to its campaign's partition, a request reads one
	// campaign. rows[i] is msgs[i]'s row, boxed once.
	msgs   []message
	rows   []bloom.Row
	probes []bloomProbe
	// sequenced is M1's preordained total order: clicks in workload order
	// with requests interleaved at fixed positions.
	sequenced []int
	// seals: every server punctuates a campaign a millisecond after its
	// last click for it.
	seals []seal
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
		campaigns := make([]string, w.Campaigns)
		for c := range campaigns {
			campaigns[c] = adtrack.CampaignName(c)
		}
		// lastFor tracks each server's final send time per campaign so the
		// punctuation follows its stream.
		lastFor := make([]sim.Time, w.Campaigns)
		for srv := 0; srv < w.Servers; srv++ {
			server := adtrack.ServerName(srv)
			clear(lastFor)
			for i := 0; i < w.ClicksPerServer; i++ {
				c := adtrack.Click{
					ID:       adtrack.AdName(i%w.Campaigns, i%w.AdsPerCampaign),
					Campaign: campaigns[i%w.Campaigns],
					Window:   "w0",
					Server:   server,
					Seq:      int64(srv*w.ClicksPerServer + i),
				}
				// Each server's stream is paced across the span.
				at := span * sim.Time(i) / sim.Time(w.ClicksPerServer+1)
				lastFor[i%w.Campaigns] = at
				p.msgs = append(p.msgs, message{at: at, producer: server, partition: c.Campaign})
				p.rows = append(p.rows, c.Row())
			}
			for c, campaign := range campaigns {
				p.seals = append(p.seals, seal{coord.Punctuation{Partition: campaign, Producer: server}, lastFor[c] + sim.Millisecond})
			}
		}
		clicks := len(p.msgs)
		for i := 0; i < w.Requests; i++ {
			req := adtrack.Request{
				ID:       adtrack.AdName(i%w.Campaigns, i%w.AdsPerCampaign),
				Campaign: campaigns[i%w.Campaigns],
				Window:   "w0",
				ReqID:    "q" + strconv.Itoa(i),
			}
			// A request is a row on the wire like any other: bare, it is
			// retransmitted like one.
			at := 10*sim.Millisecond + span*sim.Time(i)/sim.Time(w.Requests)
			p.msgs = append(p.msgs, message{at: at, partition: req.Campaign, read: true})
			p.rows = append(p.rows, req.Row())
			req.ReqID = "fq" + strconv.Itoa(i)
			p.probes = append(p.probes, bloomProbe{row: req.Row(), id: req.ReqID})
		}
		stride := clicks/(w.Requests+1) + 1
		next := clicks
		for i := 0; i < clicks; i++ {
			p.sequenced = append(p.sequenced, i)
			if (i+1)%stride == 0 && next < len(p.msgs) {
				p.sequenced = append(p.sequenced, next)
				next++
			}
		}
		for ; next < len(p.msgs); next++ {
			p.sequenced = append(p.sequenced, next)
		}
		return p, nil
	})
}

// Run implements Workload.
func (w *BloomReportWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	if !w.Supports(mech) {
		return Outcome{}, fmt.Errorf("bloom-report: unsupported mechanism %s", mech)
	}
	p, err := w.plan()
	if err != nil {
		return Outcome{}, err
	}
	// NewNode only reads its module, so the replicas (of every run) share
	// one, and a run hands its nodes back for the next run to take up.
	reps := make([]*bloomReplica, w.Replicas)
	for i := range reps {
		r, err := newBloomReplica("report"+strconv.Itoa(i), p.mod)
		if err != nil {
			return Outcome{}, err
		}
		reps[i] = r
	}

	var runErr error
	s := sim.New(seed)
	d := delivery{
		s:        s,
		plan:     plan,
		link:     sim.LinkConfig{MinDelay: 200 * sim.Microsecond, MaxDelay: 6 * sim.Millisecond},
		replicas: len(reps),
		msgs:     p.msgs,
		order:    p.sequenced,
		seals:    p.seals,
		apply: func(ri, i int) {
			if err := reps[ri].deliver(p.msgs[i].read, p.rows[i]); err != nil && runErr == nil {
				runErr = err
			}
		},
	}
	if err := d.install(mech); err != nil {
		return Outcome{}, fmt.Errorf("bloom-report: %w", err)
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
		r.node.Release()
	}
	s.Release()
	return out, nil
}
