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

// arrival is message i's arrival at replica ri, or at every replica at once
// when ri is everyReplica. A schedule carves its arrivals from one slice, so
// a message in flight costs no closure of its own.
type arrival struct {
	d     *delivery
	ri, i int32
}

// everyReplica is the replica of an arrival that reaches them all.
const everyReplica = -1

// Fire hands the message to its replica, or to each in turn.
func (a *arrival) Fire() {
	if a.ri != everyReplica {
		a.d.apply(int(a.ri), int(a.i))
		return
	}
	for ri := range a.d.replicas {
		a.d.apply(ri, int(a.i))
	}
}

// install schedules the run under mech.
func (d *delivery) install(mech dataflow.Coordination) error {
	link := d.plan.Shape(d.link)
	switch mech {
	case dataflow.CoordNone:
		// Every message travels on its own: reordering across messages and
		// across replicas, and retransmissions.
		l := sim.NewLink(d.s, link)
		arrivals := make([]arrival, 0, len(d.msgs)*d.replicas)
		for i := range d.msgs {
			m := &d.msgs[i]
			for ri := range d.replicas {
				arrivals = append(arrivals, arrival{d, int32(ri), int32(i)})
				if a := &arrivals[len(arrivals)-1]; m.once {
					l.Send(sim.Unordered, m.at, a)
				} else {
					l.SendDup(sim.Unordered, m.at, a)
				}
			}
		}

	case dataflow.CoordSequenced:
		// M1: step k of the preordained order happens at every replica at
		// once. Nothing crosses a link, so no plan reaches it, and no step
		// depends on another's time, so the spacing reaches no outcome.
		steps := make([]arrival, len(d.order))
		for k, i := range d.order {
			steps[k] = arrival{d, everyReplica, int32(i)}
			d.s.Schedule(sim.Time(k+1)*sim.Millisecond, &steps[k])
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
		// What each replica buffers of a partition, so its tracker sizes
		// the buffer once.
		data := make([]int, len(partitions))
		for i := range d.msgs {
			if m := &d.msgs[i]; !m.read {
				if k := slices.Index(partitions, m.partition); k >= 0 {
					data[k]++
				}
			}
		}
		sends := make([]sealSend, 0, (len(d.msgs)+len(d.seals))*d.replicas)
		for ri := range d.replicas {
			sends = d.sealReplica(ri, sim.NewLink(d.s, link), registry, partitions, data, sends)
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
// l is the hop into this replica alone: FIFO keys are per link. data[k] is
// how many data messages partitions[k] has. The replica's sends are carved
// from sends, which it returns extended.
func (d *delivery) sealReplica(ri int, l *sim.Link, registry *coord.Registry, partitions []string, data []int, sends []sealSend) []sealSend {
	r := &sealingReplica{d: d, ri: ri, partitions: len(partitions), held: map[string][]int{}}
	r.tracker = coord.NewSealTracker(r.fold)
	for k, partition := range partitions {
		r.tracker.Reserve(partition, data[k])
		registry.Lookup(partition, func(producers []string) { r.tracker.SetExpected(partition, producers) })
	}
	send := func(key string, at sim.Time, i int, seal, dup bool) {
		sends = append(sends, sealSend{r, int32(i), seal})
		if h := &sends[len(sends)-1]; dup {
			l.SendDup(key, at, h)
		} else {
			l.Send(key, at, h)
		}
	}
	for i := range d.msgs {
		if m := &d.msgs[i]; !m.read {
			send(m.producer, m.at, i, false, true)
		}
	}
	for k, sl := range d.seals {
		send(sl.Producer, sl.at, k, true, false)
	}
	for i := range d.msgs {
		if m := &d.msgs[i]; m.read {
			send(sim.Unordered, m.at, i, false, false)
		}
	}
	return sends
}

// sealingReplica is one replica's side of the seal protocol.
type sealingReplica struct {
	d       *delivery
	ri      int
	tracker *coord.SealTracker
	held    map[string][]int // reads waiting, by the partition they wait for
	// sealed counts the partitions released, of partitions in all.
	sealed, partitions int
	sent               []int // fold's scratch
}

// sealSend is one message into a sealing replica: msgs[i], or seals[i] when
// seal is set.
type sealSend struct {
	r    *sealingReplica
	i    int32
	seal bool
}

// Fire is the message's arrival: a seal votes, a datum is buffered, and a
// read is answered now if what it reads is sealed and held otherwise.
func (s *sealSend) Fire() {
	r, d, i := s.r, s.r.d, int(s.i)
	if s.seal {
		r.tracker.Seal(d.seals[i].Punctuation)
		return
	}
	switch m := &d.msgs[i]; {
	case !m.read:
		r.tracker.Data(m.partition, i)
	case r.tracker.Sealed(m.partition) || m.partition == allPartitions && r.sealed == r.partitions:
		d.apply(r.ri, i)
	default:
		r.held[m.partition] = append(r.held[m.partition], i)
	}
}

// fold applies a sealed partition. A sealed partition is complete and
// immutable, so it is folded in the order it was sent, whatever order it
// arrived in: that is what makes an order-sensitive fold deterministic under
// sealing. Then it answers the reads the partition held, and once every
// partition is sealed, the reads that wait for all of them.
func (r *sealingReplica) fold(partition string, buffered []any) {
	r.sent = r.sent[:0]
	for _, b := range buffered {
		r.sent = append(r.sent, b.(int))
	}
	slices.Sort(r.sent)
	for _, i := range r.sent {
		r.d.apply(r.ri, i)
	}
	r.sealed++
	r.release(partition)
	if r.sealed == r.partitions {
		r.release(allPartitions)
	}
}

// release answers the reads held for partition.
func (r *sealingReplica) release(partition string) {
	for _, i := range r.held[partition] {
		r.d.apply(r.ri, i)
	}
	delete(r.held, partition)
}
