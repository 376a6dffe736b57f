package chaos

import (
	"fmt"
	"slices"

	"blazes/internal/coord"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// message is what a delivery mechanism needs to know about one workload
// message to carry it. What the message is — a row, a chain link, a query —
// stays with the workload, which gets its index back through delivery.apply.
type message struct {
	at sim.Time // when it leaves its sender
	// producer names the sender; under sealing and quorum ordering its
	// messages are one FIFO stream into each replica.
	producer string
	// partition is what sealing buffers a datum under and holds a read for;
	// a read with none waits for every partition to seal.
	partition string
	read      bool // a read or request: sealing holds it, where it buffers data
	// once marks a message nothing retransmits (a query posed at the
	// replica): a duplicating plan delivers it once even with no mechanism
	// installed (DESIGN.md "What a fault plan duplicates").
	once bool
}

// seal is one producer's punctuation of one partition, sent on its stream.
type seal struct {
	coord.Punctuation
	at sim.Time
}

// allPartitions is the partition of a read that waits for every seal.
const allPartitions = ""

// delivery is the one place a chaos workload's mechanism is installed: given
// a run's simulator and fault plan and the workload's logical run, install
// schedules every message through the protocol the mechanism stands for,
// and apply is all a replica ever sees of it.
type delivery struct {
	s        *sim.Sim
	plan     FaultPlan
	link     sim.LinkConfig // the direct sender→replica hop, before the plan shapes it
	replicas int
	msgs     []message // sent in this order
	// order is M1's preordained total order, as indexes of msgs; it need not
	// be a permutation.
	order []int
	// seals are sealing's punctuations; the partitions, and the producers
	// the registry lists for each, are the ones they name.
	seals []seal
	apply func(replica, i int) // hands message i to a replica
}

// install schedules the run under mech.
func (d *delivery) install(mech dataflow.Coordination) error {
	link := d.plan.Shape(d.link)
	switch mech {
	case dataflow.CoordNone:
		// Every message travels on its own: reordering across messages and
		// across replicas, and retransmissions.
		l := sim.NewLink(d.s, link)
		for i := range d.msgs {
			m := &d.msgs[i]
			for ri := range d.replicas {
				if m.once {
					l.Send(sim.Unordered, m.at, func() { d.apply(ri, i) })
				} else {
					l.SendDup(sim.Unordered, m.at, func() { d.apply(ri, i) })
				}
			}
		}

	case dataflow.CoordSequenced:
		// M1: step k of the preordained order happens at every replica at
		// once. Nothing crosses a link, so no plan reaches it, and no step
		// depends on another's time, so the spacing reaches no outcome.
		for k, i := range d.order {
			d.s.At(sim.Time(k+1)*sim.Millisecond, func() {
				for ri := range d.replicas {
					d.apply(ri, i)
				}
			})
		}

	case dataflow.CoordDynamicOrder:
		// M2: the ordering service decides a per-run arrival order; its own
		// hops suffer the fault plan too.
		seq := coord.NewSequencer(d.s, d.plan.shapeSequencer(coord.DefaultSequencer))
		for ri := range d.replicas {
			seq.Subscribe(func(m coord.Sequenced) { d.apply(ri, m.Msg.(int)) })
		}
		for i := range d.msgs {
			d.s.At(d.msgs[i].at, func() { seq.Submit(i) })
		}

	case dataflow.CoordQuorumOrder:
		// M1q: producers stamp messages with Lamport clocks and replicas
		// deliver in stamp order once the stability frontier passes. The
		// poser of the reads is one more producer, so reads have preordained
		// positions too — no sequencer round trips, only heartbeats.
		q := coord.NewQuorumOrder(d.s, coord.QuorumConfig{
			Delivery:       d.plan.Shape(coord.DefaultQuorum.Delivery),
			HeartbeatEvery: 10 * sim.Millisecond,
		})
		for ri := range d.replicas {
			q.Subscribe(func(_ coord.Stamp, msg any) { d.apply(ri, msg.(int)) })
		}
		byName := map[string]*coord.QuorumProducer{}
		var producers []*coord.QuorumProducer // in first-send order, which fixes their ids
		var end sim.Time
		for i := range d.msgs {
			m := &d.msgs[i]
			p := byName[m.producer]
			if p == nil {
				p = q.Producer()
				byName[m.producer] = p
				producers = append(producers, p)
			}
			d.s.At(m.at, func() { p.Send(i) })
			end = max(end, m.at)
		}
		// Quiescence markers flush everything buffered behind the frontier.
		for _, p := range producers {
			d.s.At(end+sim.Millisecond, p.Done)
		}

	case dataflow.CoordSealed, dataflow.CoordPartitionSealed:
		// M3 / M3p: a partition is buffered until every producer the registry
		// lists for it has punctuated it. The two differ only in what a read
		// waits for, which the read says itself: every partition, or the one
		// it targets, so that a straggler delays only its own readers.
		registry := coord.NewRegistry(d.s, link)
		var partitions []string // in first-seal order
		for _, sl := range d.seals {
			if !slices.Contains(partitions, sl.Partition) {
				partitions = append(partitions, sl.Partition)
			}
			registry.Register(sl.Partition, sl.Producer)
		}
		for ri := range d.replicas {
			d.sealReplica(ri, sim.NewLink(d.s, link), registry, partitions)
		}

	default:
		return fmt.Errorf("unsupported mechanism %s", mech)
	}
	return nil
}

// sealReplica installs the consumer side of the seal protocol at one
// replica: one registry lookup per partition, data and punctuations on their
// producer's FIFO stream (a seal must not overtake the data it closes), a
// sealed partition folded at once, reads held until what they read is sealed.
// l is the hop into this replica alone: FIFO keys are per link.
func (d *delivery) sealReplica(ri int, l *sim.Link, registry *coord.Registry, partitions []string) {
	held := map[string][]int{} // reads waiting, by the partition they wait for
	release := func(partition string) {
		for _, i := range held[partition] {
			d.apply(ri, i)
		}
		delete(held, partition)
	}
	sealed := 0
	tracker := coord.NewSealTracker(func(partition string, buffered []any) {
		// A sealed partition is complete and immutable, so it is folded in
		// the order it was sent, whatever order it arrived in: that is what
		// makes an order-sensitive fold deterministic under sealing.
		sent := make([]int, len(buffered))
		for k, b := range buffered {
			sent[k] = b.(int)
		}
		slices.Sort(sent)
		for _, i := range sent {
			d.apply(ri, i)
		}
		sealed++
		release(partition)
		if sealed == len(partitions) {
			release(allPartitions)
		}
	})
	for _, partition := range partitions {
		registry.Lookup(partition, func(producers []string) { tracker.SetExpected(partition, producers) })
	}
	for i := range d.msgs {
		if m := &d.msgs[i]; !m.read {
			l.SendDup(m.producer, m.at, func() { tracker.Data(m.partition, i) })
		}
	}
	for _, sl := range d.seals {
		l.Send(sl.Producer, sl.at, func() { tracker.Seal(sl.Punctuation) })
	}
	for i := range d.msgs {
		m := &d.msgs[i]
		if !m.read {
			continue
		}
		l.Send(sim.Unordered, m.at, func() {
			if tracker.Sealed(m.partition) || m.partition == allPartitions && sealed == len(partitions) {
				d.apply(ri, i)
			} else {
				held[m.partition] = append(held[m.partition], i)
			}
		})
	}
}
