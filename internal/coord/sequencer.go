// Package coord implements the coordination substrates that Blazes
// strategies compile to: a Zookeeper-like totally ordered messaging service
// (the ordering strategies M1/M2 of Figure 5), the quorum order (M1q), a
// partition→producer registry, and the seal tracker that implements the
// paper's per-partition unanimous voting protocol (the sealing strategy M3);
// and Delivery, the one place a workload's messages are installed under
// one of them.
package coord

import (
	"blazes/internal/sim"
)

// SequencerConfig shapes the cost model of the ordering service.
type SequencerConfig struct {
	// SubmitDelay bounds the client→service hop.
	SubmitDelay sim.LinkConfig
	// DeliverDelay bounds the service→subscriber hop. Per-subscriber
	// delivery is FIFO: jitter never reorders the decided sequence.
	DeliverDelay sim.LinkConfig
	// ProcessingCost is the service's per-message serialization cost; it
	// makes the sequencer a throughput bottleneck, which is exactly the
	// overhead the paper's sealed strategies avoid.
	ProcessingCost sim.Time
}

// DefaultSequencer mimics a small Zookeeper ensemble: ~1ms hops and a
// per-operation cost dominated by quorum appends.
var DefaultSequencer = SequencerConfig{
	SubmitDelay:    sim.LinkConfig{MinDelay: 300 * sim.Microsecond, MaxDelay: 2 * sim.Millisecond},
	DeliverDelay:   sim.LinkConfig{MinDelay: 300 * sim.Microsecond, MaxDelay: 2 * sim.Millisecond},
	ProcessingCost: 400 * sim.Microsecond,
}

// Sequenced is a message stamped with its position in the global order.
type Sequenced struct {
	Seq uint64
	Msg any
}

// Sequencer is a totally ordered messaging service: clients Submit messages,
// the service decides a single global order (its arrival order — mechanism
// M2, dynamic ordering) and delivers every message to every subscriber in
// that order.
type Sequencer struct {
	sim         *sim.Sim
	cfg         SequencerConfig
	submit      *sim.Link
	subscribers []*subscriber
	nextSeq     uint64
	busyUntil   sim.Time
	submitted   int
	// A message in the service is a decision, and its hop to each
	// subscriber a handoff, both carved here: a message costs no closure.
	decisions slab[decision]
	handoffs  slab[handoff]
}

// subscriber is one delivery callback and the service→subscriber hop into
// it, on which the decided sequence is the one FIFO stream.
type subscriber struct {
	fn   func(Sequenced)
	link *sim.Link
}

// NewSequencer creates an ordering service on the given simulator.
func NewSequencer(s *sim.Sim, cfg SequencerConfig) *Sequencer {
	q := &Sequencer{}
	q.reset(s, cfg)
	return q
}

// reset makes q a new service on s, keeping what it carves from.
func (q *Sequencer) reset(s *sim.Sim, cfg SequencerConfig) {
	q.decisions.reset()
	q.handoffs.reset()
	clear(q.subscribers)
	*q = Sequencer{sim: s, cfg: cfg, submit: sim.NewLink(s, cfg.SubmitDelay),
		subscribers: q.subscribers[:0], decisions: q.decisions, handoffs: q.handoffs}
}

// Subscribe registers a delivery callback. All subscribers observe the same
// total order.
func (q *Sequencer) Subscribe(fn func(Sequenced)) {
	q.subscribers = append(q.subscribers, &subscriber{fn: fn, link: sim.NewLink(q.sim, q.cfg.DeliverDelay)})
}

// Submit sends msg to the service; it will be sequenced in arrival order
// and broadcast to all subscribers.
func (q *Sequencer) Submit(msg any) {
	q.submitted++
	m := q.decisions.next()
	*m = decision{q: q, sm: Sequenced{Msg: msg}}
	q.submit.Send(sim.Unordered, q.sim.Now(), m)
}

// decision is one submitted message. It fires twice: when it reaches the
// service, which sequences it, and when the service has processed it,
// which broadcasts it.
type decision struct {
	q       *Sequencer
	sm      Sequenced
	decided bool
}

// Fire is the message's arrival at the service, then its decision.
func (m *decision) Fire() {
	if m.decided {
		m.q.broadcast(m)
		return
	}
	m.q.arrive(m)
}

// arrive sequences one message, modelling the service's serial processing.
func (q *Sequencer) arrive(m *decision) {
	start := q.sim.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	done := start + q.cfg.ProcessingCost
	q.busyUntil = done
	q.nextSeq++
	m.sm.Seq = q.nextSeq
	m.decided = true
	q.sim.Schedule(done, m)
}

// broadcast sends a decided message to every subscriber, on the one FIFO
// stream of each.
func (q *Sequencer) broadcast(m *decision) {
	for _, sub := range q.subscribers {
		h := q.handoffs.next()
		*h = handoff{sub: sub, sm: &m.sm}
		sub.link.Send("decided", q.sim.Now(), h)
	}
}

// handoff is a decided message's arrival at one subscriber.
type handoff struct {
	sub *subscriber
	sm  *Sequenced
}

// Fire hands the message to the subscriber.
func (h *handoff) Fire() { h.sub.fn(*h.sm) }

// QueueDelay reports how far behind the service currently is: the time a
// message arriving now would wait before being sequenced. Clients use it to
// model connection backpressure (throttling and retry under overload), the
// behaviour that makes heavily loaded ordering services degrade
// superlinearly.
func (q *Sequencer) QueueDelay() sim.Time {
	if q.busyUntil <= q.sim.Now() {
		return 0
	}
	return q.busyUntil - q.sim.Now()
}

// Submitted reports how many messages have been submitted.
func (q *Sequencer) Submitted() int { return q.submitted }

// slab carves values that must stay where they are while the simulator
// holds them: it fills one array and, once that is full, starts another
// twice its size. reset frees everything carved and keeps the last array,
// so a run that carves no more than the one before it allocates nothing.
type slab[T any] struct{ buf []T }

// next returns a zero value carved from the slab.
func (s *slab[T]) next() *T {
	if len(s.buf) == cap(s.buf) {
		s.buf = make([]T, 0, max(16, 2*cap(s.buf)))
	}
	s.buf = s.buf[:len(s.buf)+1]
	return &s.buf[len(s.buf)-1]
}

// reset frees every value carved, zeroing those of the last array.
func (s *slab[T]) reset() {
	clear(s.buf)
	s.buf = s.buf[:0]
}
