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
	delivered   int
}

// subscriber is one delivery callback and the service→subscriber hop into
// it, on which the decided sequence is the one FIFO stream.
type subscriber struct {
	fn   func(Sequenced)
	link *sim.Link
}

// NewSequencer creates an ordering service on the given simulator.
func NewSequencer(s *sim.Sim, cfg SequencerConfig) *Sequencer {
	return &Sequencer{sim: s, cfg: cfg, submit: sim.NewLink(s, cfg.SubmitDelay)}
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
	q.submit.Send(sim.Unordered, q.sim.Now(), sim.Func(func() { q.arrive(msg) }))
}

// arrive sequences one message, modelling the service's serial processing.
func (q *Sequencer) arrive(msg any) {
	start := q.sim.Now()
	if q.busyUntil > start {
		start = q.busyUntil
	}
	done := start + q.cfg.ProcessingCost
	q.busyUntil = done
	q.nextSeq++
	sm := Sequenced{Seq: q.nextSeq, Msg: msg}
	q.sim.At(done, func() {
		for _, sub := range q.subscribers {
			sub.link.Send("decided", q.sim.Now(), sim.Func(func() { // one FIFO stream
				q.delivered++
				sub.fn(sm)
			}))
		}
	})
}

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

// Delivered reports the total number of subscriber deliveries.
func (q *Sequencer) Delivered() int { return q.delivered }
