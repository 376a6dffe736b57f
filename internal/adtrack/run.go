package adtrack

import (
	"fmt"
	"sort"
	"strconv"

	"blazes/internal/bloom"
	"blazes/internal/coord"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// Regime is the coordination strategy under which the ad network runs — the
// three configurations measured in Section VIII-B (the two seal lines of
// Figure 14 differ in workload partitioning, not in protocol).
type Regime int

const (
	// Uncoordinated delivers clicks and requests directly; fastest, but
	// replicas may disagree (the paper confirmed inconsistent answers).
	Uncoordinated Regime = iota
	// Ordered routes every click and request through the totally ordered
	// messaging service, so all replicas process the same sequence.
	Ordered
	// Sealed buffers each campaign partition until its producers have all
	// punctuated it (unanimous vote), then processes it atomically;
	// requests for a campaign are held until that campaign seals.
	Sealed
	// Quorum routes clicks and requests through the quorum-ordering
	// protocol: producers stamp messages with Lamport clocks, replicas
	// deliver in stamp order behind the stability frontier. Same total
	// order guarantee as Ordered, but the only coordination traffic is
	// the heartbeat — no per-message sequencer round trip.
	Quorum
)

// String names the regime as in the figures.
func (r Regime) String() string {
	switch r {
	case Uncoordinated:
		return "uncoordinated"
	case Ordered:
		return "ordered"
	case Quorum:
		return "quorum"
	default:
		return "sealed"
	}
}

// backpressureThreshold is the sequencer queue delay above which clients
// throttle and retry (Ordered regime).
const backpressureThreshold = 250 * sim.Millisecond

// Config parameterizes one ad-network run.
type Config struct {
	// Seed drives all network nondeterminism.
	Seed int64
	// Workload is the ad-server click plan.
	Workload Workload
	// Query selects the reporting query (CAMPAIGN in the paper's runs).
	Query dataflow.AdQuery
	// Threshold is the query's having threshold.
	Threshold int64
	// Replicas is the number of reporting servers (3 in the paper).
	Replicas int
	// Requests is the number of analyst requests to pose.
	Requests int
	// RequestSpacing is the interval between requests.
	RequestSpacing sim.Time
	// Regime selects the coordination strategy.
	Regime Regime
	// ProcessCost is the per-record ingestion cost at a replica (models
	// the Bloom prototype's interpretation overhead).
	ProcessCost sim.Time
	// Link shapes the direct adserver→replica and analyst→replica links.
	Link sim.LinkConfig
	// Sequencer configures the ordering service (Ordered regime). The
	// per-operation cost models quorum appends at the coordination
	// service and is the serialization bottleneck the sealed strategies
	// avoid.
	Sequencer coord.SequencerConfig
	// Quorum configures the quorum-ordering protocol (Quorum regime).
	Quorum coord.QuorumConfig
}

// DefaultConfig mirrors the paper's setup for the given number of ad
// servers.
func DefaultConfig(adServers int, regime Regime, independent bool) Config {
	seq := coord.DefaultSequencer
	seq.ProcessingCost = 4 * sim.Millisecond // quorum append at the service
	return Config{
		Seed:           1,
		Workload:       DefaultWorkload(adServers, independent),
		Query:          dataflow.CAMPAIGN,
		Threshold:      100,
		Replicas:       3,
		Requests:       20,
		RequestSpacing: 500 * sim.Millisecond,
		Regime:         regime,
		ProcessCost:    500 * sim.Microsecond,
		Link:           sim.LinkConfig{MinDelay: 500 * sim.Microsecond, MaxDelay: 8 * sim.Millisecond},
		Sequencer:      seq,
		Quorum:         coord.DefaultQuorum,
	}
}

// Point is one sample of ingestion progress.
type Point struct {
	At      sim.Time
	Records int
}

// Series is a cumulative progress curve — the y-axis of Figures 12–14.
type Series []Point

// Final returns the last cumulative value.
func (s Series) Final() int {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1].Records
}

// At interpolates the cumulative value at time t (step function).
func (s Series) At(t sim.Time) int {
	val := 0
	for _, p := range s {
		if p.At > t {
			break
		}
		val = p.Records
	}
	return val
}

// Response is one answer emitted by a replica.
type Response struct {
	Replica int
	Row     bloom.Row
	At      sim.Time
}

// Result is the outcome of one ad-network run.
type Result struct {
	// Series is replica 0's cumulative processed-log-records curve.
	Series Series
	// FinishedAt is when the last replica finished ingesting all records.
	FinishedAt sim.Time
	// RegistryLookups counts seal-protocol registry calls (one per
	// campaign per replica expected).
	RegistryLookups int
	// Responses collects every response emitted, tagged by replica.
	Responses []Response
	// LogSizes is each replica's final click-log cardinality.
	LogSizes []int
	// LogDigests is each replica's canonical persistent-state digest
	// (bloom.Node.Digest), the content-sensitive companion to LogSizes.
	LogDigests []string
	// Held reports requests still held at run end (sealed regime, when a
	// campaign never sealed).
	Held int
	// BufferSum and BufferCount accumulate, at replica 0, the time each
	// click record spent buffered awaiting its partition's seal — the
	// latency cost of low coordination locality that separates Figure
	// 14's two curves.
	BufferSum   sim.Time
	BufferCount int
	// CoordMessages counts the coordination-service messages the regime
	// issued: sequencer submissions (one round trip per click/request)
	// under Ordered, watermark heartbeats under Quorum, 0 otherwise —
	// the cost axis on which quorum ordering beats the sequencer.
	CoordMessages int
}

// AvgBufferTime is the mean time a record waited for its partition to seal.
func (r *Result) AvgBufferTime() sim.Time {
	if r.BufferCount == 0 {
		return 0
	}
	return r.BufferSum / sim.Time(r.BufferCount)
}

// replica is one reporting server instance in the simulation.
type replica struct {
	idx  int
	node *bloom.Node
	// link is the direct adserver→replica / analyst→replica hop; no send on
	// it retransmits (DESIGN.md "What a fault plan duplicates").
	link      *sim.Link
	busyUntil sim.Time
	draining  bool
	// pending is the serialized input queue. Clicks and requests share it,
	// which preserves the relative order in which they reached the replica
	// — essential for the ordering regime's guarantee that all replicas
	// process the same interleaving.
	pending []*record
	// batch and req are what the scheduled drain step will apply: the
	// clicks drained ahead of the request (if any) that ends the step.
	// draining keeps them exclusive until fire runs, so one buffer serves
	// every step, and fire is the one closure every step schedules.
	batch    []bloom.Row
	req      *record
	fire     func()
	ingested int
	series   Series
	// Sealed-regime state.
	tracker *coord.SealTracker
	held    map[string][]*record
	looked  map[string]bool
	// arrivals records per-campaign data arrival times until release.
	arrivals map[string][]sim.Time
}

// Run executes one ad-network run to completion. A caller running many
// schedules of one workload passes the plan it prepared once (Prepare);
// without one the run prepares its own.
func Run(cfg Config, prepared ...*Prepared) (*Result, error) {
	if cfg.Replicas <= 0 {
		return nil, fmt.Errorf("adtrack: Replicas must be positive")
	}
	plan, err := planFor(cfg, prepared)
	if err != nil {
		return nil, err
	}
	bursts, requests := plan.bursts, plan.requests
	s := sim.New(cfg.Seed)
	res := &Result{}

	// NewNode only reads its module, so the replicas (of every run) share
	// one, and a run hands its nodes back for the next run to take up.
	replicas := make([]*replica, cfg.Replicas)
	for i := range replicas {
		node, err := bloom.NewNode("report"+strconv.Itoa(i), plan.module)
		if err != nil {
			return nil, err
		}
		replicas[i] = &replica{
			idx:      i,
			node:     node,
			link:     sim.NewLink(s, cfg.Link),
			held:     map[string][]*record{},
			looked:   map[string]bool{},
			arrivals: map[string][]sim.Time{},
		}
	}

	var tickErr error
	fail := func(err error) {
		if tickErr == nil {
			tickErr = err
		}
	}

	// collectTick runs one Bloom timestep on a replica and harvests
	// responses.
	collectTick := func(r *replica) {
		em, err := r.node.Tick()
		if err != nil {
			fail(err)
			return
		}
		for _, e := range em {
			if e.Collection != "response" {
				continue
			}
			for _, row := range e.Rows {
				res.Responses = append(res.Responses, Response{Replica: r.idx, Row: row, At: s.Now()})
			}
		}
	}

	// drain serializes a replica's work queue: clicks cost ProcessCost
	// each; a request triggers a Bloom timestep at its queue position, so
	// the interleaving of clicks and requests is faithfully preserved.
	var drain func(r *replica)
	drain = func(r *replica) {
		if r.draining || len(r.pending) == 0 {
			return
		}
		r.draining = true
		r.batch = r.batch[:0]
		i := 0
		for ; i < len(r.pending) && !r.pending[i].request; i++ {
			r.batch = append(r.batch, r.pending[i].row)
		}
		r.req = nil
		if i < len(r.pending) {
			r.req = r.pending[i]
			i++
		}
		r.pending = r.pending[i:]

		start := s.Now()
		if r.busyUntil > start {
			start = r.busyUntil
		}
		done := start + sim.Time(len(r.batch))*cfg.ProcessCost
		r.busyUntil = done
		s.At(done, r.fire)
	}
	for _, r := range replicas {
		r.fire = func() {
			if len(r.batch) > 0 {
				if err := r.node.Deliver("click", r.batch...); err != nil {
					fail(err)
					return
				}
				r.ingested += len(r.batch)
				r.series = append(r.series, Point{At: s.Now(), Records: r.ingested})
			}
			if r.req != nil {
				if err := r.node.Deliver("request", r.req.row); err != nil {
					fail(err)
					return
				}
				collectTick(r)
			}
			r.draining = false
			drain(r)
		}
	}
	enqueue := func(r *replica, m *record) {
		r.pending = append(r.pending, m)
		drain(r)
	}

	switch cfg.Regime {
	case Uncoordinated:
		// Every click travels independently: reordering across records
		// and across replicas.
		for _, b := range bursts {
			s.At(b.At, func() {
				for i := range b.records {
					m := &b.records[i]
					for _, r := range replicas {
						r.link.Send(sim.Unordered, s.Now(), sim.Func(func() { enqueue(r, m) }))
					}
				}
			})
		}
		for i := range requests {
			req := &requests[i]
			s.At(req.at, func() {
				for _, r := range replicas {
					r.link.Send(sim.Unordered, s.Now(), sim.Func(func() { enqueue(r, req) }))
				}
			})
		}

	case Ordered:
		seq := coord.NewSequencer(s, cfg.Sequencer)
		for _, r := range replicas {
			seq.Subscribe(func(m coord.Sequenced) { enqueue(r, m.Msg.(*record)) })
		}
		// Clients throttle when the service queue grows (connection
		// backpressure): a burst finding the queue deep defers itself.
		var submitBurst func(b *Burst)
		submitBurst = func(b *Burst) {
			if d := seq.QueueDelay(); d > backpressureThreshold {
				backoff := d + sim.Time(s.Rand().Int63n(int64(d)+1))
				s.After(backoff, func() { submitBurst(b) })
				return
			}
			for i := range b.records {
				seq.Submit(&b.records[i])
			}
		}
		for i := range bursts {
			s.At(bursts[i].At, func() { submitBurst(&bursts[i]) })
		}
		for i := range requests {
			s.At(requests[i].at, func() { seq.Submit(&requests[i]) })
		}
		defer func() { res.CoordMessages = seq.Submitted() }()

	case Quorum:
		q := coord.NewQuorumOrder(s, cfg.Quorum)
		for _, r := range replicas {
			q.Subscribe(func(_ coord.Stamp, msg any) { enqueue(r, msg.(*record)) })
		}
		// One stamping producer per ad server (first-occurrence order, so
		// producer ids — and hence the preordained order — are
		// deterministic) plus one for the analyst.
		producers := map[string]*coord.QuorumProducer{}
		var plist []*coord.QuorumProducer
		for _, b := range bursts {
			if producers[b.Server] == nil {
				p := q.Producer()
				producers[b.Server] = p
				plist = append(plist, p)
			}
		}
		analyst := q.Producer()
		plist = append(plist, analyst)
		var end sim.Time
		for _, b := range bursts {
			end = max(end, b.At)
			s.At(b.At, func() {
				p := producers[b.Server]
				for i := range b.records {
					p.Send(&b.records[i])
				}
			})
		}
		for i := range requests {
			end = max(end, requests[i].at)
			s.At(requests[i].at, func() { analyst.Send(&requests[i]) })
		}
		// Quiescence markers flush everything buffered behind the frontier.
		for _, p := range plist {
			s.At(end+sim.Millisecond, p.Done)
		}
		defer func() { res.CoordMessages = q.Heartbeats() }()

	case Sealed:
		registry := coord.NewRegistry(s, cfg.Link)
		for campaign, producers := range plan.producers {
			for _, p := range producers {
				registry.Register(campaign, p)
			}
		}
		for _, r := range replicas {
			r.tracker = coord.NewSealTracker(func(partition string, msgs []any) {
				if r.idx == 0 {
					for _, at := range r.arrivals[partition] {
						res.BufferSum += s.Now() - at
						res.BufferCount++
					}
					delete(r.arrivals, partition)
				}
				for _, m := range msgs {
					enqueue(r, m.(*record))
				}
				for _, req := range r.held[partition] {
					enqueue(r, req)
				}
				delete(r.held, partition)
			})
			for _, c := range plan.clicks {
				r.tracker.Reserve(c.campaign, c.n)
			}
		}
		lookup := func(r *replica, campaign string) {
			if r.looked[campaign] {
				return
			}
			r.looked[campaign] = true
			registry.Lookup(campaign, func(producers []string) {
				r.tracker.SetExpected(campaign, producers)
			})
		}
		// Each ad server's traffic is one FIFO stream on a replica's link:
		// punctuations are embedded in the producer's stream and must not
		// overtake its data.
		for _, b := range bursts {
			s.At(b.At, func() {
				for _, r := range replicas {
					for i := range b.records {
						c := &b.records[i]
						r.link.Send(b.Server, s.Now(), sim.Func(func() {
							lookup(r, c.campaign)
							if r.idx == 0 {
								r.arrivals[c.campaign] = append(r.arrivals[c.campaign], s.Now())
							}
							r.tracker.Data(c.campaign, c)
						}))
					}
					for _, campaign := range b.Seals {
						r.link.Send(b.Server, s.Now(), sim.Func(func() {
							lookup(r, campaign)
							r.tracker.Seal(coord.Punctuation{Partition: campaign, Producer: b.Server})
						}))
					}
				}
			})
		}
		for i := range requests {
			req := &requests[i]
			s.At(req.at, func() {
				for _, r := range replicas {
					r.link.Send(sim.Unordered, s.Now(), sim.Func(func() {
						if r.tracker.Sealed(req.campaign) {
							enqueue(r, req)
						} else {
							r.held[req.campaign] = append(r.held[req.campaign], req)
						}
					}))
				}
			})
		}
		defer func() { res.RegistryLookups = registry.Lookups() }()
	}

	s.Run()
	if tickErr != nil {
		return nil, tickErr
	}

	// Final bookkeeping: flush one tick per replica so trailing deliveries
	// reach the log, then collect results. FinishedAt measures record
	// ingestion (the paper's y-axis), not the analyst-request tail.
	for _, r := range replicas {
		if r.node.Pending() {
			collectTick(r)
		}
		res.LogSizes = append(res.LogSizes, r.node.Size("clicklog"))
		res.LogDigests = append(res.LogDigests, r.node.Digest())
		for _, reqs := range r.held {
			res.Held += len(reqs)
		}
		if n := len(r.series); n > 0 && r.series[n-1].At > res.FinishedAt {
			res.FinishedAt = r.series[n-1].At
		}
	}
	if tickErr != nil {
		return nil, tickErr
	}
	for _, r := range replicas {
		r.node.Release()
	}
	s.Release()
	res.Series = replicas[0].series
	sort.Slice(res.Responses, func(i, j int) bool {
		if res.Responses[i].At != res.Responses[j].At {
			return res.Responses[i].At < res.Responses[j].At
		}
		return res.Responses[i].Replica < res.Responses[j].Replica
	})
	return res, nil
}
