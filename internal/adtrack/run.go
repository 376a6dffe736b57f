package adtrack

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"

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

// regimes names each regime as in the figures, and gives the mechanism the
// coordination installer runs it under. A sealed request reads its own
// campaign, so sealing holds it for that campaign alone.
var regimes = [...]struct {
	name string
	mech dataflow.Coordination
}{
	Uncoordinated: {"uncoordinated", dataflow.CoordNone},
	Ordered:       {"ordered", dataflow.CoordDynamicOrder},
	Sealed:        {"sealed", dataflow.CoordSealed},
	Quorum:        {"quorum", dataflow.CoordQuorumOrder},
}

// String names the regime as in the figures.
func (r Regime) String() string {
	if r < 0 || int(r) >= len(regimes) {
		return "Regime(" + strconv.Itoa(int(r)) + ")"
	}
	return regimes[r].name
}

// RegimeFor returns the regime that runs under mech, if one does.
func RegimeFor(mech dataflow.Coordination) (Regime, bool) {
	for r, g := range regimes {
		if g.mech == mech {
			return Regime(r), true
		}
	}
	return 0, false
}

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
	// Responses collects every response emitted, tagged by replica.
	Responses []Response
	// LogSizes is each replica's final click-log cardinality.
	LogSizes []int
	// LogDigests is each replica's canonical persistent-state digest
	// (bloom.Node.Digest), the content-sensitive companion to LogSizes.
	LogDigests []string
	// Counters are what the regime's coordination cost and left behind:
	// its coordination-service messages, the sealed regime's registry
	// lookups (one per campaign per replica), the requests still held at
	// run end (a campaign never sealed), and the time clicks spent
	// buffered awaiting their campaign's seal, over every replica.
	coord.Counters
}

// replica is one reporting server instance in the simulation.
type replica struct {
	idx       int
	node      *bloom.Node
	busyUntil sim.Time
	draining  bool
	// pending is the serialized input queue, as message indexes. Clicks
	// and requests share it, which preserves the relative order in which
	// they reached the replica — essential for the ordering regime's
	// guarantee that all replicas process the same interleaving.
	pending []int
	// batch and req are what the scheduled drain step will apply: the
	// clicks drained ahead of the request (if any) that ends the step.
	// draining keeps them exclusive until fire runs, so one buffer serves
	// every step, and fire is the one closure every step schedules.
	batch    []bloom.Row
	req      bloom.Row
	fire     func()
	ingested int
	// series is replica 0's progress curve, and lastAt when any replica
	// last ingested: FinishedAt reads it.
	series Series
	lastAt sim.Time
}

// releasedReplicas holds the replicas of finished runs for takeReplica:
// their queue, batch and series arrays are the size the workload made them.
var releasedReplicas sync.Pool

// takeReplica returns an empty replica idx around node, a released one if
// there is one.
func takeReplica(idx int, node *bloom.Node) *replica {
	r, _ := releasedReplicas.Get().(*replica)
	if r == nil {
		r = new(replica)
	}
	*r = replica{idx: idx, node: node, pending: r.pending[:0], batch: r.batch[:0], series: r.series[:0]}
	return r
}

// release hands the replica back; its node is the caller's.
func (r *replica) release() {
	clear(r.batch)
	*r = replica{pending: r.pending, batch: r.batch, series: r.series}
	releasedReplicas.Put(r)
}

// Run executes one ad-network run to completion. A caller running many
// schedules of one workload passes the plan it prepared once (Prepare);
// without one the run prepares its own.
func Run(cfg Config, prepared ...*Prepared) (*Result, error) {
	res, nodes, err := RunHeld(cfg, prepared...)
	for _, n := range nodes {
		n.Release()
	}
	return res, err
}

// RunHeld is Run, except that it hands back the replicas' Bloom nodes, in
// replica order and as the run left them, instead of releasing them, for a
// caller that reads their state; the caller releases each.
func RunHeld(cfg Config, prepared ...*Prepared) (*Result, []*bloom.Node, error) {
	if cfg.Replicas <= 0 {
		return nil, nil, fmt.Errorf("adtrack: Replicas must be positive")
	}
	if cfg.Regime < 0 || int(cfg.Regime) >= len(regimes) {
		return nil, nil, fmt.Errorf("adtrack: unknown regime %s", cfg.Regime)
	}
	plan, err := planFor(cfg, prepared)
	if err != nil {
		return nil, nil, err
	}
	s := sim.New(cfg.Seed)
	res := &Result{}

	// NewNode only reads its module, so the replicas (of every run) share
	// one, and a run hands its nodes back for the next run to take up.
	replicas := make([]*replica, cfg.Replicas)
	for i := range replicas {
		node, err := bloom.NewNode("report"+strconv.Itoa(i), plan.module)
		if err != nil {
			return nil, nil, err
		}
		replicas[i] = takeReplica(i, node)
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
		for ; i < len(r.pending) && !plan.msgs[r.pending[i]].Read; i++ {
			r.batch = append(r.batch, plan.rows[r.pending[i]])
		}
		r.req = nil
		if i < len(r.pending) {
			r.req = plan.rows[r.pending[i]]
			i++
		}
		r.pending = r.pending[:copy(r.pending, r.pending[i:])]

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
				r.lastAt = s.Now()
				if r.idx == 0 {
					r.series = append(r.series, Point{At: s.Now(), Records: r.ingested})
				}
			}
			if r.req != nil {
				if err := r.node.Deliver("request", r.req); err != nil {
					fail(err)
					return
				}
				collectTick(r)
			}
			r.draining = false
			drain(r)
		}
	}
	d := coord.Delivery{
		Sim:       s,
		Link:      cfg.Link,
		Sequencer: cfg.Sequencer,
		Quorum:    cfg.Quorum,
		Replicas:  cfg.Replicas,
		Msgs:      plan.msgs,
		Apply: func(ri, i int) {
			r := replicas[ri]
			r.pending = append(r.pending, i)
			drain(r)
		},
	}
	if err := d.Install(regimes[cfg.Regime].mech); err != nil {
		return nil, nil, fmt.Errorf("adtrack: %w", err)
	}

	s.Run()
	if tickErr != nil {
		return nil, nil, tickErr
	}
	if res.Counters, err = d.Result(); err != nil {
		return nil, nil, fmt.Errorf("adtrack: %w", err)
	}
	d.Release()

	// Final bookkeeping: flush one tick per replica so trailing deliveries
	// reach the log, then collect results. FinishedAt measures record
	// ingestion (the paper's y-axis), not the analyst-request tail. A
	// replica whose state equals an earlier one's (bloom.Node.StateEqual;
	// the earlier one ticks no more) takes that one's digest.
	for i, r := range replicas {
		if r.node.Pending() {
			collectTick(r)
		}
		res.LogSizes = append(res.LogSizes, r.node.Size("clicklog"))
		digest := ""
		for j, q := range replicas[:i] {
			if r.node.StateEqual(q.node) {
				digest = res.LogDigests[j]
				break
			}
		}
		if digest == "" {
			digest = r.node.Digest()
		}
		res.LogDigests = append(res.LogDigests, digest)
		res.FinishedAt = max(res.FinishedAt, r.lastAt)
	}
	if tickErr != nil {
		return nil, nil, tickErr
	}
	// The curve goes to the figures, so it is the run's own.
	if series := replicas[0].series; len(series) > 0 {
		res.Series = slices.Clone(series)
	}
	nodes := make([]*bloom.Node, len(replicas))
	for i, r := range replicas {
		nodes[i] = r.node
		r.release()
	}
	s.Release()
	sort.Slice(res.Responses, func(i, j int) bool {
		if res.Responses[i].At != res.Responses[j].At {
			return res.Responses[i].At < res.Responses[j].At
		}
		return res.Responses[i].Replica < res.Responses[j].Replica
	})
	return res, nodes, nil
}
