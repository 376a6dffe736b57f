package coord

import (
	"math"
	"slices"
	"sort"
	"strconv"

	"blazes/internal/sim"
)

// QuorumConfig shapes the quorum-ordering substrate (the quorum-ordering
// strategy, M1q).
type QuorumConfig struct {
	// Delivery bounds the direct producer→replica hop. Per-pair delivery
	// is FIFO: jitter never reorders one producer's messages at one
	// replica, which is what makes a producer's own stamps act as
	// watermarks.
	Delivery sim.LinkConfig
	// HeartbeatEvery is the idle-watermark period: how often a producer
	// that has nothing to send still advances the stability frontier. It
	// bounds how long stable messages can sit buffered, and it is the
	// protocol's whole coordination cost — compare Heartbeats() against a
	// Sequencer's one round trip per Submit.
	HeartbeatEvery sim.Time
}

// DefaultQuorum mirrors DefaultSequencer's link model with a 100ms
// heartbeat: cheap enough to be negligible against per-message round
// trips, frequent enough that buffered reads release within a heartbeat.
var DefaultQuorum = QuorumConfig{
	Delivery:       sim.LinkConfig{MinDelay: 300 * sim.Microsecond, MaxDelay: 2 * sim.Millisecond},
	HeartbeatEvery: 100 * sim.Millisecond,
}

// Stamp is the preordained position of a message in the quorum order:
// messages are delivered in (Clock, Producer, Seq) order. Clock is the
// producer's Lamport clock at send time, Seq its per-producer sequence
// number (also the dedup key under at-least-once delivery).
type Stamp struct {
	Clock    uint64
	Producer int
	Seq      uint64
}

// less orders stamps by (Clock, Producer, Seq).
func (a Stamp) less(b Stamp) bool {
	if a.Clock != b.Clock {
		return a.Clock < b.Clock
	}
	if a.Producer != b.Producer {
		return a.Producer < b.Producer
	}
	return a.Seq < b.Seq
}

// QuorumOrder is the quorum/vector-clock ordering service: producers stamp
// messages with monotone Lamport clocks and send them directly to every
// replica; replicas buffer and deliver in (Clock, Producer, Seq) order once
// the stability frontier — the minimum watermark across producers — has
// passed. The total order is fixed by the stamps at send time, so unlike a
// Sequencer (one round trip per message) the only coordination traffic is
// the periodic heartbeat that advances watermarks through idle periods.
type QuorumOrder struct {
	sim        *sim.Sim
	cfg        QuorumConfig
	producers  []*QuorumProducer
	replicas   []*quorumReplica
	heartbeats int
}

// NewQuorumOrder creates a quorum-ordering service on the given simulator.
func NewQuorumOrder(s *sim.Sim, cfg QuorumConfig) *QuorumOrder {
	if cfg.HeartbeatEvery <= 0 {
		cfg.HeartbeatEvery = DefaultQuorum.HeartbeatEvery
	}
	return &QuorumOrder{sim: s, cfg: cfg}
}

// Subscribe registers a replica delivery callback. All replicas observe
// the same (Clock, Producer, Seq) total order.
func (q *QuorumOrder) Subscribe(fn func(Stamp, any)) {
	r := &quorumReplica{
		q:         q,
		fn:        fn,
		link:      sim.NewLink(q.sim, q.cfg.Delivery),
		watermark: make([]uint64, len(q.producers)),
		delivered: make([]uint64, len(q.producers)),
	}
	q.replicas = append(q.replicas, r)
}

// Producer registers a new producer and starts its heartbeat. Register
// every producer before the first Send so replicas know the full frontier.
func (q *QuorumOrder) Producer() *QuorumProducer {
	p := &QuorumProducer{q: q, id: len(q.producers), stream: strconv.Itoa(len(q.producers))}
	q.producers = append(q.producers, p)
	for _, r := range q.replicas {
		r.watermark = append(r.watermark, 0)
		r.delivered = append(r.delivered, 0)
	}
	q.sim.After(q.cfg.HeartbeatEvery, p.tick)
	return p
}

// Heartbeats reports how many watermark broadcasts producers have issued —
// the protocol's total coordination cost, the analog of a Sequencer's
// Submitted count.
func (q *QuorumOrder) Heartbeats() int { return q.heartbeats }

// QuorumProducer is one stamping client of the quorum order.
type QuorumProducer struct {
	q      *QuorumOrder
	id     int
	stream string // the FIFO key of its data and watermarks on every replica's link
	clock  uint64
	seq    uint64
	done   bool
}

// Send stamps msg with the producer's next clock and broadcasts it to
// every replica over the direct jittered (but per-pair FIFO) hop, at least
// once: data dedups by stamp.
func (p *QuorumProducer) Send(msg any) {
	p.clock++
	p.seq++
	st := Stamp{Clock: p.clock, Producer: p.id, Seq: p.seq}
	for _, r := range p.q.replicas {
		r.link.SendDup(p.stream, p.q.sim.Now(), sim.Func(func() { r.data(st, msg) }))
	}
}

// tick emits a heartbeat and reschedules itself until Done.
func (p *QuorumProducer) tick() {
	if p.done {
		return
	}
	p.heartbeat(p.clock)
	p.q.sim.After(p.q.cfg.HeartbeatEvery, p.tick)
}

// Done marks the producer quiescent: a final watermark at +inf lets
// replicas drain everything buffered behind this producer's frontier.
func (p *QuorumProducer) Done() {
	if p.done {
		return
	}
	p.done = true
	p.heartbeat(math.MaxUint64)
}

// heartbeat broadcasts the producer's watermark: a promise that no future
// stamp from it will carry a clock ≤ w. It rides the data's stream, at
// least once like the data: a watermark is idempotent.
func (p *QuorumProducer) heartbeat(w uint64) {
	p.q.heartbeats++
	for _, r := range p.q.replicas {
		r.link.SendDup(p.stream, p.q.sim.Now(), sim.Func(func() { r.mark(p.id, w) }))
	}
}

// quorumReplica buffers stamped messages and releases them in stamp order
// as the stability frontier advances.
type quorumReplica struct {
	q  *QuorumOrder
	fn func(Stamp, any)
	// link is the hop into this replica, one FIFO stream per producer.
	link *sim.Link
	// buffer holds arrived-but-unstable messages in stamp order, so the
	// stable ones are always a prefix of it.
	buffer []stamped
	// watermark is, by producer id, the highest clock the producer has
	// promised not to send at or below again (its last stamp or heartbeat).
	watermark []uint64
	// delivered is, by producer id, the highest seq received: a producer's
	// data arrive on its FIFO stream in seq order, a retransmission behind
	// its first copy, so a seq at or below it is a duplicate.
	delivered []uint64
}

type stamped struct {
	st  Stamp
	msg any
}

// data receives one stamped message: dedup, record the implied watermark
// (the stamp itself — FIFO links make it one), buffer in stamp order, and
// drain.
func (r *quorumReplica) data(st Stamp, msg any) {
	if st.Seq <= r.delivered[st.Producer] {
		return
	}
	r.delivered[st.Producer] = st.Seq
	if st.Clock > r.watermark[st.Producer] {
		r.watermark[st.Producer] = st.Clock
	}
	at := sort.Search(len(r.buffer), func(i int) bool { return st.less(r.buffer[i].st) })
	r.buffer = slices.Insert(r.buffer, at, stamped{st: st, msg: msg})
	r.drain()
}

// mark receives a watermark heartbeat (idempotent: max wins).
func (r *quorumReplica) mark(producer int, w uint64) {
	if w > r.watermark[producer] {
		r.watermark[producer] = w
	}
	r.drain()
}

// drain delivers every buffered message at or below the stability frontier
// — the minimum watermark across producers — in (Clock, Producer, Seq)
// order. A producer never stamps at or below its watermark again and the
// per-pair links are FIFO, so everything ≤ the frontier has arrived:
// delivering it in stamp order is safe and identical at every replica.
func (r *quorumReplica) drain() {
	frontier := uint64(0)
	if len(r.watermark) > 0 {
		frontier = slices.Min(r.watermark)
	}
	n := 0
	for n < len(r.buffer) && r.buffer[n].st.Clock <= frontier {
		n++
	}
	ready := r.buffer[:n]
	r.buffer = r.buffer[n:]
	for _, m := range ready {
		r.fn(m.st, m.msg)
	}
}
