package coord

import (
	"fmt"
	"slices"
	"sync"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// Message is what a delivery mechanism needs to know about one workload
// message to carry it. What the message is — a row, a chain link, a query —
// stays with the workload, which gets its index back through Delivery.Apply.
type Message struct {
	At sim.Time // when it leaves its sender
	// Producer names the sender; under sealing and quorum ordering its
	// messages are one FIFO stream into each replica, sent in the order the
	// list gives them, its punctuations included.
	Producer string
	// Partition is what sealing buffers a datum under, what a punctuation
	// closes and what a read is held for; a read with none waits for every
	// partition to seal.
	Partition string
	Read      bool // a read or request: sealing holds it, where it buffers data
	// Seal marks Producer's punctuation of Partition: its promise to send no
	// further data for it. Only sealing carries it; every other mechanism
	// skips it, and Apply never sees it.
	Seal bool
	// Once marks a message nothing retransmits (a query posed at the
	// replica, a hop that never retransmits): a duplicating plan delivers it
	// once (DESIGN.md "What a fault plan duplicates").
	Once bool
}

// AllPartitions is the partition of a read that waits for every seal.
const AllPartitions = ""

// backpressureThreshold is the sequencer queue delay above which M2's
// clients throttle and retry.
const backpressureThreshold = 250 * sim.Millisecond

// Delivery is the one place a mechanism is installed: given a run's
// simulator, the shapes of the hops a mechanism sends on and the workload's
// logical run, Install schedules every message through the protocol the
// mechanism stands for, and Apply is all a replica ever sees of it.
type Delivery struct {
	Sim *sim.Sim
	// Link is the direct sender→replica hop, and the registry's round trip.
	Link      sim.LinkConfig
	Sequencer SequencerConfig // M2's ordering service
	Quorum    QuorumConfig    // M1q's stamped order
	Replicas  int
	Msgs      []Message
	// Order is M1's preordained total order, as indexes of Msgs; it need
	// not be a permutation.
	Order []int
	Apply func(replica, i int) // hands message i to a replica

	kept      *kept // what Install carves from, until Release
	seq       *Sequencer
	quorum    *QuorumOrder
	producers []*QuorumProducer // M1q's, in first-send order, which fixes their ids
	registry  *Registry
	sealing   []*sealingReplica
	err       error
}

// kept is the memory an installation fills whose size the workload fixes,
// not the seed: the handlers it carves, the sealing replicas with their
// trackers, and the sequencer with its records. Release hands it to
// released, and the next Install, of whatever workload, takes it up.
type kept struct {
	arrivals   []arrival // CoordNone's deliveries, M1's steps
	subs       []submission
	sends      []sealSend
	partitions []string
	data       []int
	sealing    []*sealingReplica // the replicas in use; more kept past len
	seq        *Sequencer
}

// released holds the memory of finished installations. It is a sync.Pool,
// so the collector empties it: a sweep's worker reuses one schedule's
// memory in the next, and nothing outlives the sweep.
var released sync.Pool

// Release hands what Install carved and filled back for a later Install to
// take up. Call it once the run is over and Result read; neither the
// Delivery nor anything Install scheduled on its simulator may be used
// afterwards.
func (d *Delivery) Release() {
	k := d.kept
	if k == nil {
		return
	}
	clear(k.arrivals)
	clear(k.subs)
	clear(k.sends)
	d.kept, d.seq, d.sealing = nil, nil, nil
	released.Put(k)
}

// Counters is what a run's mechanism cost and left behind, once its
// simulator has run.
type Counters struct {
	// CoordMessages counts the coordination service's messages: sequencer
	// submissions under M2 (one round trip per message), watermark
	// heartbeats under M1q, 0 otherwise — the cost axis on which quorum
	// ordering beats the sequencer.
	CoordMessages int
	// RegistryLookups counts sealing's registry calls: one per partition
	// per replica.
	RegistryLookups int
	// Held counts the reads still held at the end, over every replica: under
	// sealing, the reads of a partition that never sealed.
	Held int
	// BufferSum and BufferCount accumulate, over every replica, the time
	// each datum spent buffered from its arrival to its partition's fold —
	// the latency cost of low coordination locality that separates
	// Figure 14's two curves.
	BufferSum   sim.Time
	BufferCount int
}

// AvgBufferTime is the mean time a datum waited for its partition to seal.
func (c *Counters) AvgBufferTime() sim.Time {
	if c.BufferCount == 0 {
		return 0
	}
	return c.BufferSum / sim.Time(c.BufferCount)
}

// Result returns the counters of a run that has gone to quiescence, and
// the run's error: a datum that arrived for a partition its replica had
// already released, which the FIFO streams make impossible when every
// producer lists its punctuation after its data.
func (d *Delivery) Result() (Counters, error) {
	var c Counters
	switch {
	case d.seq != nil:
		c.CoordMessages = d.seq.Submitted()
	case d.quorum != nil:
		c.CoordMessages = d.quorum.Heartbeats()
	case d.registry != nil:
		c.RegistryLookups = d.registry.Lookups()
	}
	for _, r := range d.sealing {
		//lint:allow maporder a sum over the values is order-insensitive
		for _, reads := range r.held {
			c.Held += len(reads)
		}
		c.BufferSum += r.bufferSum
		c.BufferCount += r.bufferCount
	}
	return c, d.err
}

// arrival is message i's arrival at replica ri, or at every replica at once
// when ri is everyReplica. A schedule carves its arrivals from one slice, so
// a message in flight costs no closure of its own.
type arrival struct {
	d     *Delivery
	ri, i int32
}

// everyReplica is the replica of an arrival that reaches them all.
const everyReplica = -1

// Fire hands the message to its replica, or to each in turn.
func (a *arrival) Fire() {
	if a.ri != everyReplica {
		a.d.Apply(int(a.ri), int(a.i))
		return
	}
	for ri := range a.d.Replicas {
		a.d.Apply(ri, int(a.i))
	}
}

// Install schedules the run under mech.
func (d *Delivery) Install(mech dataflow.Coordination) error {
	k, _ := released.Get().(*kept)
	if k == nil {
		k = new(kept)
	}
	d.kept = k
	switch mech {
	case dataflow.CoordNone:
		// Every message travels on its own: reordering across messages and
		// across replicas, and retransmissions.
		l := sim.NewLink(d.Sim, d.Link)
		arrivals := slices.Grow(k.arrivals[:0], len(d.Msgs)*d.Replicas)
		for i := range d.Msgs {
			m := &d.Msgs[i]
			if m.Seal {
				continue
			}
			for ri := range d.Replicas {
				arrivals = append(arrivals, arrival{d, int32(ri), int32(i)})
				if a := &arrivals[len(arrivals)-1]; m.Once {
					l.Send(sim.Unordered, m.At, a)
				} else {
					l.SendDup(sim.Unordered, m.At, a)
				}
			}
		}
		k.arrivals = arrivals

	case dataflow.CoordSequenced:
		// M1: each step of the preordained order happens at every replica at
		// once. Nothing crosses a link, so no plan reaches it, and no step
		// depends on another's time, so the spacing reaches no outcome.
		k.arrivals = slices.Grow(k.arrivals[:0], len(d.Order))[:len(d.Order)]
		for step, i := range d.Order {
			k.arrivals[step] = arrival{d, everyReplica, int32(i)}
			d.Sim.Schedule(sim.Time(step+1)*sim.Millisecond, &k.arrivals[step])
		}

	case dataflow.CoordDynamicOrder:
		// M2: the ordering service decides a per-run arrival order; its own
		// hops suffer the fault plan too.
		if k.seq == nil {
			k.seq = NewSequencer(d.Sim, d.Sequencer)
		} else {
			k.seq.reset(d.Sim, d.Sequencer)
		}
		d.seq = k.seq
		for ri := range d.Replicas {
			d.seq.Subscribe(func(m Sequenced) { d.Apply(ri, m.Msg.(int)) })
		}
		d.submit()

	case dataflow.CoordQuorumOrder:
		// M1q: producers stamp messages with Lamport clocks and replicas
		// deliver in stamp order once the stability frontier passes. The
		// poser of the reads is one more producer, so reads have preordained
		// positions too — no sequencer round trips, only heartbeats.
		d.quorum = NewQuorumOrder(d.Sim, d.Quorum)
		for ri := range d.Replicas {
			d.quorum.Subscribe(func(_ Stamp, msg any) { d.Apply(ri, msg.(int)) })
		}
		end := d.submit()
		// Quiescence markers flush everything buffered behind the frontier.
		for _, p := range d.producers {
			d.Sim.At(end+sim.Millisecond, p.Done)
		}

	case dataflow.CoordSealed, dataflow.CoordPartitionSealed:
		// M3 / M3p: a partition is buffered until every producer the registry
		// lists for it has punctuated it. The two differ only in what a read
		// waits for, which the read says itself: every partition, or the one
		// it targets, so that a straggler delays only its own readers.
		d.registry = NewRegistry(d.Sim, d.Link)
		partitions := k.partitions[:0] // in first-seal order
		for i := range d.Msgs {
			if m := &d.Msgs[i]; m.Seal {
				if !slices.Contains(partitions, m.Partition) {
					partitions = append(partitions, m.Partition)
				}
				d.registry.Register(m.Partition, m.Producer)
			}
		}
		// What each replica buffers of a partition, so its tracker sizes
		// the buffer once.
		data := slices.Grow(k.data[:0], len(partitions))[:len(partitions)]
		clear(data)
		for i := range d.Msgs {
			if m := &d.Msgs[i]; !m.Read && !m.Seal {
				if p := slices.Index(partitions, m.Partition); p >= 0 {
					data[p]++
				}
			}
		}
		k.partitions, k.data = partitions, data
		k.sends = slices.Grow(k.sends[:0], len(d.Msgs)*d.Replicas)
		k.sealing = k.sealing[:0]
		for ri := range d.Replicas {
			d.sealReplica(ri, sim.NewLink(d.Sim, d.Link))
		}
		d.sealing = k.sealing

	default:
		return fmt.Errorf("unsupported mechanism %s", mech)
	}
	return nil
}

// submission is a run of messages one producer sends at one instant, handed
// to M2's sequencer or to M1q's stamping producer (producers[p]) when it
// leaves: Msgs[from:to]. A schedule carves its submissions from one slice.
type submission struct {
	d        *Delivery
	from, to int32
	p        int32
}

// submit schedules every message but the punctuations, in submissions, and
// returns when the last leaves. Under M1q it registers each producer at its
// first submission.
func (d *Delivery) submit() sim.Time {
	// A submission per run of messages: one at most per message.
	subs := slices.Grow(d.kept.subs[:0], len(d.Msgs))
	var names []string // M1q's producers, by id
	var end sim.Time
	for from := 0; from < len(d.Msgs); {
		to, m := d.runEnd(from), &d.Msgs[from]
		if !m.Seal {
			sub := submission{d: d, from: int32(from), to: int32(to)}
			if d.quorum != nil {
				id := slices.Index(names, m.Producer)
				if id < 0 {
					id = len(names)
					names = append(names, m.Producer)
					d.producers = append(d.producers, d.quorum.Producer())
				}
				sub.p = int32(id)
			}
			subs = append(subs, sub)
			d.Sim.Schedule(m.At, &subs[len(subs)-1])
			end = max(end, m.At)
		}
		from = to
	}
	d.kept.subs = subs
	return end
}

// runEnd returns the end of the run of messages starting at from: a
// punctuation is a run of its own, and data and reads run on while the
// producer and the send time stay the same.
func (d *Delivery) runEnd(from int) int {
	m, to := &d.Msgs[from], from+1
	if m.Seal {
		return to
	}
	for ; to < len(d.Msgs); to++ {
		if n := &d.Msgs[to]; n.Seal || n.At != m.At || n.Producer != m.Producer {
			break
		}
	}
	return to
}

// Fire submits the run. Under M2, clients throttle when the service's
// queue grows (connection backpressure): a run finding the queue deep
// defers itself by that delay and a random share more.
func (s *submission) Fire() {
	d := s.d
	if d.seq != nil {
		if q := d.seq.QueueDelay(); q > backpressureThreshold {
			d.Sim.Schedule(d.Sim.Now()+q+sim.Time(d.Sim.Rand().Int63n(int64(q)+1)), s)
			return
		}
		for i := s.from; i < s.to; i++ {
			d.seq.Submit(int(i))
		}
		return
	}
	p := d.producers[s.p]
	for i := s.from; i < s.to; i++ {
		p.Send(int(i))
	}
}

// sealReplica installs the consumer side of the seal protocol at one
// replica: one registry lookup per partition, data and punctuations on their
// producer's FIFO stream in list order (a seal must not overtake the data
// it closes), a sealed partition folded at once, reads held until what they
// read is sealed. l is the hop into this replica alone: FIFO keys are per
// link. The replica is the next of the kept ones, or a new one; its sends
// are carved from the kept sends.
func (d *Delivery) sealReplica(ri int, l *sim.Link) {
	k := d.kept
	var r *sealingReplica
	if n := len(k.sealing); n < cap(k.sealing) {
		k.sealing = k.sealing[:n+1]
		r = k.sealing[n]
		r.tracker.reset()
		clear(r.held)
		*r = sealingReplica{tracker: r.tracker, held: r.held, waits: r.waits}
	} else {
		r = &sealingReplica{held: map[string][]int{}}
		r.tracker = NewSealTracker(r.fold)
		k.sealing = append(k.sealing, r)
	}
	r.d, r.ri, r.partitions = d, ri, k.partitions
	r.waits = slices.Grow(r.waits[:0], len(r.partitions))[:len(r.partitions)]
	clear(r.waits)
	for p, partition := range r.partitions {
		r.tracker.Reserve(partition, k.data[p])
		d.registry.Lookup(partition, func(producers []string) { r.tracker.SetExpected(partition, producers) })
	}
	sends := k.sends
	for i := range d.Msgs {
		m := &d.Msgs[i]
		sends = append(sends, sealSend{r, int32(i)})
		switch h := &sends[len(sends)-1]; {
		case m.Read:
			l.Send(sim.Unordered, m.At, h)
		case m.Seal || m.Once:
			l.Send(m.Producer, m.At, h)
		default:
			l.SendDup(m.Producer, m.At, h)
		}
	}
	k.sends = sends
}

// sealingReplica is one replica's side of the seal protocol.
type sealingReplica struct {
	d          *Delivery
	ri         int
	partitions []string
	tracker    *SealTracker
	held       map[string][]int // reads waiting, by the partition they wait for
	sealed     int              // partitions released
	// waits[k] is what partitions[k]'s buffered data has waited so far;
	// bufferSum and bufferCount what released data waited.
	waits       []partitionWait
	bufferSum   sim.Time
	bufferCount int
}

// partitionWait sums the arrival times of a partition's buffered data, so
// that their total wait at release is n·now − Σ arrival.
type partitionWait struct {
	arrivals sim.Time
	n        int
}

// sealSend is msgs[i]'s arrival at a sealing replica.
type sealSend struct {
	r *sealingReplica
	i int32
}

// Fire is the message's arrival: a seal votes, a datum is buffered, and a
// read is answered now if what it reads is sealed and held otherwise.
func (s *sealSend) Fire() {
	r, d, i := s.r, s.r.d, int(s.i)
	switch m := &d.Msgs[i]; {
	case m.Seal:
		r.tracker.Seal(Punctuation{Partition: m.Partition, Producer: m.Producer})
	case !m.Read:
		if !r.tracker.Data(m.Partition, i) {
			if d.err == nil {
				d.err = fmt.Errorf("replica %d: message %d, a datum of partition %q, arrived after the partition was released", r.ri, i, m.Partition)
			}
			return
		}
		if k := slices.Index(r.partitions, m.Partition); k >= 0 {
			r.waits[k].arrivals += d.Sim.Now()
			r.waits[k].n++
		}
	case r.tracker.Sealed(m.Partition) || m.Partition == AllPartitions && r.sealed == len(r.partitions):
		d.Apply(r.ri, i)
	default:
		r.held[m.Partition] = append(r.held[m.Partition], i)
	}
}

// fold applies a sealed partition. A sealed partition is complete and
// immutable, so it is folded in the order it was sent, whatever order it
// arrived in: that is what makes an order-sensitive fold deterministic under
// sealing. Then it answers the reads the partition held, and once every
// partition is sealed, the reads that wait for all of them.
func (r *sealingReplica) fold(partition string, buffered []int) {
	w := &r.waits[slices.Index(r.partitions, partition)]
	r.bufferSum += sim.Time(w.n)*r.d.Sim.Now() - w.arrivals
	r.bufferCount += w.n
	slices.Sort(buffered) // the tracker lends the buffer for the call
	for _, i := range buffered {
		r.d.Apply(r.ri, i)
	}
	r.sealed++
	r.release(partition)
	if r.sealed == len(r.partitions) {
		r.release(AllPartitions)
	}
}

// release answers the reads held for partition.
func (r *sealingReplica) release(partition string) {
	for _, i := range r.held[partition] {
		r.d.Apply(r.ri, i)
	}
	delete(r.held, partition)
}
