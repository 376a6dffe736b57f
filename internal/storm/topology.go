package storm

import (
	"fmt"
	"slices"
	"sync"

	"blazes/internal/coord"
	"blazes/internal/sim"
)

// CommitMode selects how committer bolts apply batches.
type CommitMode int

const (
	// CommitSealed commits each batch independently the moment its
	// punctuations arrive — out of order across batches, with no global
	// coordination. Blazes proves this safe when batches are independent
	// (the wordcount's OW_{word,batch} is compatible with Seal_batch).
	CommitSealed CommitMode = iota
	// CommitTransactional is Storm's "transactional topology": batches
	// commit in a single global order decided through the ordering
	// service, batch n+1 only after batch n.
	CommitTransactional
)

// String names the mode.
func (m CommitMode) String() string {
	if m == CommitTransactional {
		return "transactional"
	}
	return "sealed"
}

// The engine's fixed costs.
const (
	// finishBatchCost is the cost of a bolt's per-batch finalization.
	finishBatchCost = 200 * sim.Microsecond
	// commitCost is the local cost of applying one batch at a committer.
	commitCost = 500 * sim.Microsecond
)

// Config shapes the simulated physical deployment.
type Config struct {
	// Link is the inter-instance network behaviour.
	Link sim.LinkConfig
	// PerTupleCost is each instance's serial execution cost per tuple.
	PerTupleCost sim.Time
	// EmitInterval paces spout emission (per tuple per spout instance).
	EmitInterval sim.Time
	// MaxInFlight bounds the number of uncommitted batches in the
	// pipeline.
	MaxInFlight int
	// BatchInterval, when positive, switches the spout to paced emission:
	// batch k is emitted at k×BatchInterval regardless of acks (an
	// offered-load, steady-state model — the regime the paper's
	// throughput measurements are taken in). Zero keeps ack-driven
	// emission bounded by MaxInFlight.
	BatchInterval sim.Time
	// Punctuate controls whether batch-end punctuations flow through the
	// topology. When false, bolts flush batches on a timer instead —
	// the nondeterministic "early emission" the paper warns about.
	Punctuate bool
	// FlushTimeout is the timer used when Punctuate is false: a batch is
	// (prematurely, possibly incompletely) finished this long after its
	// first tuple reaches an instance.
	FlushTimeout sim.Time
	// Sequencer configures the ordering service for transactional mode.
	Sequencer coord.SequencerConfig
}

// DefaultConfig is a reasonable LAN deployment.
func DefaultConfig() Config {
	return Config{
		Link:         sim.DefaultLAN,
		PerTupleCost: 20 * sim.Microsecond,
		EmitInterval: 10 * sim.Microsecond,
		MaxInFlight:  4,
		Punctuate:    true,
		FlushTimeout: 50 * sim.Millisecond,
		Sequencer:    coord.DefaultSequencer,
	}
}

// Metrics aggregates a run's outcomes.
type Metrics struct {
	// EmittedTuples counts spout emissions.
	EmittedTuples int
	// CommittedBatches counts batch commits (per committer instance).
	CommittedBatches int
	// AckedBatches counts fully committed batches.
	AckedBatches int
	// Stragglers counts tuples that arrived after their batch was
	// timer-flushed: the anomalous configuration leaves them out of it.
	Stragglers int
	// FinishedAt is the virtual time of the final batch ack.
	FinishedAt sim.Time
	// CommitSeries records (time, cumulative acked batches) pairs.
	CommitSeries []CommitPoint
}

// CommitPoint is one sample of commit progress.
type CommitPoint struct {
	At      sim.Time
	Batches int
}

// Throughput returns spout tuples per virtual second.
func (m Metrics) Throughput() float64 {
	if m.FinishedAt == 0 {
		return 0
	}
	return float64(m.EmittedTuples) / m.FinishedAt.Seconds()
}

// Topology is a wired dataflow of one spout stage and bolt stages.
type Topology struct {
	sim  *sim.Sim
	cfg  Config
	mode CommitMode

	spoutName string
	spout     Spout
	spoutN    int

	stages []*stage
	byName map[string]*stage
	// firstStages read directly from the spout and committers is the
	// committer stage (nil without one); both are resolved once, in Start.
	firstStages []*stage
	committers  *stage
	seq         *coord.Sequencer
	txc         *txCoordinator
	metrics     Metrics

	// routeBuf is the shared routing scratch buffer.
	routeBuf []int
	// The delivery pool: slab is the uncarved rest of the newest slab,
	// slabSize its full size.
	freeDeliveries []*delivery
	slab           []delivery
	slabSize       int
	// spareInstances and spareBatches are what Release kept of the last
	// run's instances and batch states, emptied, for this run to take up.
	spareInstances []*instance
	spareBatches   []*batchState

	// Spout-side batch control.
	nextBatch    int64
	exhausted    bool
	totalBatches int64
	inflight     map[int64]*batchControl
	unacked      int // emitted batches not yet fully committed
	// scratchBatch is the reusable routed-batch buffer.
	scratchBatch spoutBatch
	// spoutTuples is the reusable per-instance pull buffer.
	spoutTuples [][]Values
}

// spoutBatch is one batch routed whole before its first tuple is sent: every
// routing draw of a batch comes before its first network-delay draw, and
// that order of the simulator's random draws is what fixes the schedule.
type spoutBatch struct {
	sends []spoutSend
	// ends carries the per-(stage,instance) punctuation counts.
	ends []spoutEnd
}

type spoutSend struct {
	stage  *stage
	target int
	m      message
	// offset is the pacing offset from the batch's emission.
	offset sim.Time
}

type spoutEnd struct {
	stage  *stage
	target int
	from   int
	count  int
	offset sim.Time
}

type batchControl struct {
	acked   bool
	commits map[int]bool // committer instance → committed
}

// stage is one bolt layer.
type stage struct {
	topo       *Topology
	name       string
	n          int
	factory    func(instance int) Bolt
	grouping   Grouping
	upstream   string // stage or spout name
	committer  bool
	instances  []*instance
	downstream []*stage
	upstreamN  int
}

// released holds topologies handed back by Release for NewTopology to take
// up again. Like the simulator's, it is a sync.Pool, so the collector
// empties it and nothing outlives a sweep.
var released sync.Pool

// NewTopology creates an empty topology over the simulator. It takes up a
// topology a finished run released if there is one, which holds nothing but
// what Release kept — memory, not state — so the run is the one a new
// topology would run.
func NewTopology(s *sim.Sim, cfg Config, mode CommitMode) *Topology {
	t, _ := released.Get().(*Topology)
	if t == nil {
		t = new(Topology)
	}
	t.sim, t.cfg, t.mode = s, cfg, mode
	t.byName = map[string]*stage{}
	t.inflight = map[int64]*batchControl{}
	t.totalBatches = -1
	if mode == CommitTransactional {
		t.seq = coord.NewSequencer(s, cfg.Sequencer)
		t.txc = newTxCoordinator(t)
	}
	return t
}

// SetSpout installs the spout stage.
func (t *Topology) SetSpout(name string, s Spout, parallelism int) {
	t.spoutName, t.spout, t.spoutN = name, s, parallelism
}

// AddBolt appends a bolt stage reading from upstream with the given
// grouping.
func (t *Topology) AddBolt(name string, factory func(instance int) Bolt, parallelism int, g Grouping, upstream string) {
	t.addStage(name, factory, parallelism, g, upstream, false)
}

// AddCommitter appends a committing bolt stage: its FinishBatch is the
// commit point governed by the topology's CommitMode.
func (t *Topology) AddCommitter(name string, factory func(instance int) Bolt, parallelism int, g Grouping, upstream string) {
	t.addStage(name, factory, parallelism, g, upstream, true)
}

func (t *Topology) addStage(name string, factory func(int) Bolt, n int, g Grouping, upstream string, committer bool) {
	st := &stage{
		topo: t, name: name, n: n, factory: factory,
		grouping: g, upstream: upstream, committer: committer,
	}
	t.stages = append(t.stages, st)
	t.byName[name] = st
}

// Metrics returns the run's metrics (valid once the simulator has drained).
func (t *Topology) Metrics() Metrics { return t.metrics }

// Start wires the physical topology and begins emitting batches. Run the
// simulator to completion (or a deadline) afterwards.
func (t *Topology) Start() error {
	if t.spout == nil {
		return fmt.Errorf("storm: topology has no spout")
	}
	if len(t.stages) == 0 {
		return fmt.Errorf("storm: topology has no bolts")
	}
	for _, st := range t.stages {
		if st.committer && t.committers == nil {
			t.committers = st
		}
		if st.upstream == t.spoutName {
			st.upstreamN = t.spoutN
			t.firstStages = append(t.firstStages, st)
			continue
		}
		up, ok := t.byName[st.upstream]
		if !ok {
			return fmt.Errorf("storm: stage %q reads from unknown stage %q", st.name, st.upstream)
		}
		up.downstream = append(up.downstream, st)
		st.upstreamN = up.n
	}
	for _, st := range t.stages {
		st.instances = make([]*instance, st.n)
		for i := 0; i < st.n; i++ {
			st.instances[i] = t.newInstance(st, i)
		}
	}
	t.spoutTuples = make([][]Values, t.spoutN)
	if t.cfg.BatchInterval > 0 {
		t.schedulePaced(0)
	} else {
		t.maybeEmit()
	}
	return nil
}

// schedulePaced emits batch b at b×BatchInterval and chains the next.
func (t *Topology) schedulePaced(b int64) {
	t.sim.At(sim.Time(b)*t.cfg.BatchInterval, func() {
		t.emitBatch(b)
		if t.exhausted {
			return
		}
		t.nextBatch = b + 1
		t.schedulePaced(b + 1)
	})
}

// maybeEmit keeps MaxInFlight batches in the pipeline.
func (t *Topology) maybeEmit() {
	for !t.exhausted && t.unacked < t.cfg.MaxInFlight {
		t.emitBatch(t.nextBatch)
		if t.exhausted {
			break
		}
		t.nextBatch++
	}
}

// emitBatch pulls batch b from every spout instance, routes it whole into
// the scratch buffer, and then streams it into the first stages, pacing
// tuples and closing with punctuations.
func (t *Topology) emitBatch(b int64) {
	perInstance := t.spoutTuples
	any := false
	pulled := 0
	for i := range perInstance {
		tuples, ok := t.spout.NextBatch(i, b)
		if !ok {
			tuples = nil
		}
		perInstance[i] = tuples
		pulled += len(tuples)
		any = any || ok
	}
	if !any {
		t.exhausted = true
		t.totalBatches = b
		return
	}
	t.inflight[b] = &batchControl{commits: map[int]bool{}}
	t.unacked++

	sb := &t.scratchBatch
	sb.sends = sb.sends[:0]
	sb.ends = sb.ends[:0]
	// One send per tuple and first stage unless a grouping fans out: grow
	// once rather than by append's steps.
	sb.sends = slices.Grow(sb.sends, pulled*len(t.firstStages))
	for _, st := range t.firstStages {
		for i, tuples := range perInstance {
			counts := make([]int, st.n)
			var offset sim.Time
			for seq, vals := range tuples {
				tp := Tuple{Batch: b, Values: vals}
				t.routeBuf = st.grouping.Route(tp, st.n, t.sim.Rand().Int63(), t.routeBuf[:0])
				offset += t.cfg.EmitInterval
				for _, target := range t.routeBuf {
					counts[target]++
					sb.sends = append(sb.sends, spoutSend{
						stage: st, target: target, offset: offset,
						m: message{seq: int32(seq), from: int32(i), tuple: tp},
					})
				}
			}
			if t.cfg.Punctuate {
				for target := 0; target < st.n; target++ {
					sb.ends = append(sb.ends, spoutEnd{
						stage: st, target: target, from: i, count: counts[target], offset: offset,
					})
				}
			}
		}
	}
	for i := range perInstance {
		t.metrics.EmittedTuples += len(perInstance[i])
	}
	start := t.sim.Now()
	for _, snd := range sb.sends {
		t.deliver(snd.stage, snd.target, snd.m, start+snd.offset)
	}
	for _, end := range sb.ends {
		t.deliver(end.stage, end.target, message{
			seq: -1, from: int32(end.from), tuple: Tuple{Batch: b}, count: int32(end.count),
		}, start+end.offset)
	}
}

// deliver schedules a message onto an instance after a network delay drawn
// from the link configuration (independently per message, which is what
// reorders them). A message is "sent" at notBefore (spout pacing offsets
// schedule sends in the future); partition windows open at that instant
// hold it at the sender until they heal.
func (t *Topology) deliver(st *stage, idx int, m message, notBefore sim.Time) {
	delay := t.cfg.Link.Delay(t.sim)
	at := t.cfg.Link.Release(notBefore, notBefore+delay)
	if now := t.sim.Now(); at < now {
		at = now
	}
	ins := st.instances[idx]
	t.arriveAt(at, ins, m)
	if t.cfg.Link.DupProb > 0 && t.sim.Rand().Float64() < t.cfg.Link.DupProb {
		t.arriveAt(at+delay, ins, m)
	}
}

// delivery is one message in flight, and its own arrival event. A closure
// per message was more than half of everything a run allocated, so
// deliveries are pooled: carved from slabs, each knowing the topology whose
// free list it goes back to. The simulator's queue entry points at the
// delivery itself, so the arrival — tens of thousands of events after the
// send, with nothing of it left in cache — loads this one line.
type delivery struct {
	t   *Topology
	ins *instance
	m   message
}

// firstSlab and maxSlab bound the slabs deliveries are carved from: each is
// twice the last, so a small topology pays for a small pool.
const (
	firstSlab = 64
	maxSlab   = 16384
)

// arriveAt schedules m's arrival at ins.
func (t *Topology) arriveAt(at sim.Time, ins *instance, m message) {
	d := t.newDelivery()
	d.ins, d.m = ins, m
	t.sim.Schedule(at, d)
}

func (t *Topology) newDelivery() *delivery {
	if n := len(t.freeDeliveries); n > 0 {
		d := t.freeDeliveries[n-1]
		t.freeDeliveries = t.freeDeliveries[:n-1]
		return d
	}
	if len(t.slab) == 0 {
		t.slabSize = min(max(2*t.slabSize, firstSlab), maxSlab)
		t.slab = make([]delivery, t.slabSize)
	}
	d := &t.slab[0]
	t.slab = t.slab[1:]
	d.t = t
	return d
}

// Release hands the topology back for a later NewTopology, once its
// simulator has stopped: the memory a run grew into is what the next run
// would grow into again. It keeps the delivery pool (free deliveries and the
// rest of the newest slab), the instances with their queue and batch
// arrays, every batch state with its bitset arrays, and the routing scratch.
// What it keeps holds no tuple: a free delivery dropped its values at
// arrival, and the queues and routed batch are cleared here. Deliveries
// still in flight when the run stopped stay with their slab and are not
// reused. Metrics, the store a committer wrote and every bolt belong to the
// caller and are not touched. Release a topology once, after its last event,
// and touch it no more.
func (t *Topology) Release() {
	for _, st := range t.stages {
		for _, in := range st.instances {
			for _, bs := range in.batches {
				if bs != nil {
					t.spareBatches = append(t.spareBatches, bs)
				}
			}
			clear(in.batches)
			clear(in.queue)
			in.st, in.bolt, in.cur = nil, nil, execItem{}
			t.spareInstances = append(t.spareInstances, in)
		}
	}
	sends, ends := t.scratchBatch.sends, t.scratchBatch.ends
	clear(sends[:cap(sends)])
	clear(ends[:cap(ends)])
	*t = Topology{
		routeBuf:       t.routeBuf[:0],
		freeDeliveries: t.freeDeliveries,
		slab:           t.slab,
		slabSize:       t.slabSize,
		spareInstances: t.spareInstances,
		spareBatches:   t.spareBatches,
		scratchBatch:   spoutBatch{sends: sends[:0], ends: ends[:0]},
	}
	released.Put(t)
}

// Fire is a delivery's arrival. The delivery goes back to the free list
// before receive runs: its contents are copied out, and the next send may
// take this very delivery.
func (d *delivery) Fire() {
	t, ins, m := d.t, d.ins, d.m
	d.m.tuple.Values = nil // the pool must not keep a batch's strings alive
	t.freeDeliveries = append(t.freeDeliveries, d)
	ins.receive(m)
}

// commitDone is called when one committer instance has durably applied a
// batch.
func (t *Topology) commitDone(b int64, committerIdx int) {
	t.metrics.CommittedBatches++
	bc := t.inflight[b]
	if bc == nil || bc.acked {
		return
	}
	bc.commits[committerIdx] = true
	if t.committers == nil || len(bc.commits) < t.committers.n {
		return
	}
	bc.acked = true
	t.unacked--
	t.metrics.AckedBatches++
	t.metrics.FinishedAt = t.sim.Now()
	t.metrics.CommitSeries = append(t.metrics.CommitSeries, CommitPoint{At: t.sim.Now(), Batches: t.metrics.AckedBatches})
	if t.cfg.BatchInterval == 0 {
		t.maybeEmit()
	}
}

// Done reports whether every emitted batch has fully committed.
func (t *Topology) Done() bool {
	return t.exhausted && t.unacked == 0
}
