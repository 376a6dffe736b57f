package chaos

import (
	"fmt"
	"sort"
	"strconv"

	"blazes/internal/coord"
	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/sim"
)

// SyntheticWorkload is the Figure 5 component wired into the harness (and
// the one replica model behind experiments.Fig5Matrix): N producers stream
// messages to R replicas of a single component, with interleaved reads.
// Four variants span Figure 5's property axis and the annotation lattice:
//
//   - confluent: a grow-only set (CW write, CR read) — the analyzer
//     certifies it and the harness runs it bare;
//   - convergent: a last-writer-wins register over pre-stamped messages
//     (CW write, OR* read) — replicas end equal, but reads race the
//     writes; it is Figure 5's middle row and not part of Suite;
//   - gated order-sensitive: per-producer hash chains with the source
//     sealed on producer (OW_producer / OR_producer + Seal_producer) — the
//     analyzer recommends sealing (M3);
//   - ungated order-sensitive: the same chains with unknown partitioning
//     (OW*/OR*) — the analyzer must fall back to ordering (M2/M1).
//
// Replicas deduplicate retransmissions by (producer, seq) — the standard
// at-least-once discipline — so duplication faults exercise idempotence
// while delivery order remains the nondeterminism under test.
type SyntheticWorkload struct {
	// Confluent selects the grow-only-set variant.
	Confluent bool
	// Convergent selects the last-writer-wins register; ignored when
	// Confluent.
	Convergent bool
	// Gated marks the order-sensitive paths as partitioned per producer
	// and seals the source; ignored when Confluent or Convergent.
	Gated bool
	// Producers, PerProducer, Reads, Replicas size the run.
	Producers, PerProducer, Reads, Replicas int
}

// SyntheticSet returns the confluent variant.
func SyntheticSet() *SyntheticWorkload {
	return &SyntheticWorkload{Confluent: true, Producers: 2, PerProducer: 10, Reads: 4, Replicas: 2}
}

// SyntheticRegister returns the convergent variant.
func SyntheticRegister() *SyntheticWorkload {
	return &SyntheticWorkload{Convergent: true, Producers: 2, PerProducer: 10, Reads: 4, Replicas: 2}
}

// SyntheticChains returns the order-sensitive variant; gated selects
// per-producer partitioning (sealable).
func SyntheticChains(gated bool) *SyntheticWorkload {
	return &SyntheticWorkload{Gated: gated, Producers: 2, PerProducer: 10, Reads: 4, Replicas: 2}
}

// Name implements Workload.
func (w *SyntheticWorkload) Name() string {
	switch {
	case w.Confluent:
		return "synthetic-set"
	case w.Convergent:
		return "synthetic-register"
	case w.Gated:
		return "synthetic-chains-gated"
	default:
		return "synthetic-chains"
	}
}

// Graph implements Workload.
func (w *SyntheticWorkload) Graph() (*dataflow.Graph, error) {
	g := dataflow.NewGraph(w.Name())
	comp := g.Component("Synthetic")
	comp.Rep = true
	switch {
	case w.Confluent:
		comp.AddPath("msgs", "out", core.CW)
		comp.AddPath("reads", "out", core.CR)
	case w.Convergent:
		comp.AddPath("msgs", "out", core.CW)
		comp.AddPath("reads", "out", core.ORStar())
	case w.Gated:
		comp.AddPath("msgs", "out", core.OWGate("producer"))
		comp.AddPath("reads", "out", core.ORGate("producer"))
	default:
		comp.AddPath("msgs", "out", core.OWStar())
		comp.AddPath("reads", "out", core.ORStar())
	}
	chains := !w.Confluent && !w.Convergent
	if chains {
		// The per-producer XOR digest in synReplica is a declared
		// commutative merge, so the merge-rewrite strategy applies to the
		// order-sensitive variants.
		comp.Merge = "xor-set-digest"
	}
	src := g.Source("msgs", "Synthetic", "msgs")
	if w.Gated && chains {
		src.Seal = fd.NewAttrSet("producer")
	}
	g.Source("reads", "Synthetic", "reads")
	g.Sink("out", "Synthetic", "out")
	return g, nil
}

// Supports implements Workload: the synthetic component can install every
// Figure 5 mechanism plus the registered extensions (per-partition sealing
// needs the per-producer seal, so only the gated variant supports it).
func (w *SyntheticWorkload) Supports(mech dataflow.Coordination) bool {
	switch mech {
	case dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder, dataflow.CoordSealed:
		return true
	case dataflow.CoordQuorumOrder, dataflow.CoordMergeRewrite:
		return true
	case dataflow.CoordPartitionSealed:
		return w.Gated
	}
	return false
}

// synMsg is one producer message; Stamp is a predetermined logical
// timestamp, which makes the convergent register's final state
// schedule-independent.
type synMsg struct {
	Producer string
	Seq      int
	Stamp    int
	// ID is "producer:seq", formatted once per message, not per delivery:
	// the dedup key and, verbatim, the value replicas fold (wire data,
	// TestWireNamesPinned).
	ID string
}

func (m synMsg) id() string    { return m.ID }
func (m synMsg) value() string { return m.ID }

// synReplica is one replica of the component under test.
type synReplica struct {
	confluent, convergent bool
	// merge selects the rewritten fold (merge-rewrite strategy): an
	// order-insensitive XOR digest per producer instead of the hash chain.
	merge bool
	seen  map[string]bool
	set   map[string]bool // confluent: a grow-only set
	// convergent: a last-writer-wins register.
	regStamp int
	regVal   string
	chains   map[string]uint64 // order-sensitive: per-producer hash chains
	outputs  []string
}

func newSynReplica(w *SyntheticWorkload) *synReplica {
	return &synReplica{confluent: w.Confluent, convergent: w.Convergent,
		seen: map[string]bool{}, set: map[string]bool{}, chains: map[string]uint64{}}
}

func (r *synReplica) apply(m synMsg) {
	if r.seen[m.id()] {
		return // at-least-once duplicate
	}
	r.seen[m.id()] = true
	if r.confluent {
		r.set[m.value()] = true
		return
	}
	if r.convergent {
		if m.Stamp > r.regStamp {
			r.regStamp, r.regVal = m.Stamp, m.value()
		}
		return
	}
	if r.merge {
		// The declared commutative merge: XOR of element hashes is a set
		// digest, insensitive to delivery order (dedup above supplies
		// idempotence).
		r.chains[m.Producer] ^= synElemHash(m.value())
		return
	}
	r.chains[m.Producer] = synChainHash(r.chains[m.Producer], m.value())
}

func (r *synReplica) read() { r.outputs = append(r.outputs, r.snapshot()) }

func (r *synReplica) snapshot() string {
	if r.confluent {
		vals := make([]string, 0, len(r.set))
		for v := range r.set {
			vals = append(vals, v)
		}
		return canonSet(vals)
	}
	if r.convergent {
		return r.regVal
	}
	keys := make([]string, 0, len(r.chains))
	for k := range r.chains {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+strconv.FormatUint(r.chains[k], 16))
	}
	return canonSet(parts)
}

func (r *synReplica) outcome() ReplicaOutcome {
	return ReplicaOutcome{Trace: append([]string{}, r.outputs...), Final: r.snapshot()}
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds s into a 64-bit FNV-1a state (hash/fnv's New64a, without the
// hash.Hash64 and the []byte it wants).
func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// synChainHash links v onto a hash chain: FNV-1a of "<prev in hex>|<v>".
func synChainHash(prev uint64, v string) uint64 {
	var hex [17]byte
	return fnv1a(fnv1a(fnvOffset64, append(strconv.AppendUint(hex[:0], prev, 16), '|')), v)
}

func synElemHash(v string) uint64 { return fnv1a(fnvOffset64, v) }

// Run implements Workload.
func (w *SyntheticWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	span := 80 * sim.Millisecond
	s := sim.New(seed)
	link := plan.Shape(sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 12 * sim.Millisecond})

	reps := make([]*synReplica, w.Replicas)
	for i := range reps {
		reps[i] = newSynReplica(w)
	}
	var msgs []synMsg
	for p := 0; p < w.Producers; p++ {
		for i := 0; i < w.PerProducer; i++ {
			producer := "p" + strconv.Itoa(p)
			msgs = append(msgs, synMsg{Producer: producer, Seq: i, Stamp: i*w.Producers + p + 1, ID: producer + ":" + strconv.Itoa(i)})
		}
	}
	sendTime := func(m synMsg) sim.Time {
		return span * sim.Time(m.Seq*w.Producers) / sim.Time(len(msgs))
	}
	readTimes := make([]sim.Time, w.Reads)
	for i := range readTimes {
		readTimes[i] = span * sim.Time(i+1) / sim.Time(w.Reads+1)
	}
	// arrival draws one chaotic hop for a message sent at `sent`.
	arrival := func(sent sim.Time) sim.Time {
		return link.Release(sent, sent+link.Delay(s))
	}
	// dup reports whether the link duplicates this delivery.
	dup := func() bool { return link.DupProb > 0 && s.Rand().Float64() < link.DupProb }
	// finalize runs after the simulation drains, before outcomes are
	// collected (e.g. to assemble request-keyed answers into a trace).
	var finalize []func()

	switch mech {
	case dataflow.CoordNone, dataflow.CoordMergeRewrite:
		// Merge rewrite installs no delivery protocol: replicas run the
		// declared commutative merge over the same chaotic uncoordinated
		// schedule, and order-insensitivity of the merge does the rest.
		if mech == dataflow.CoordMergeRewrite && !w.Confluent {
			for _, r := range reps {
				r.merge = true
			}
		}
		for _, m := range msgs {
			m := m
			at := sendTime(m)
			for _, r := range reps {
				r := r
				s.At(arrival(at), func() { r.apply(m) })
				if dup() {
					s.At(arrival(at), func() { r.apply(m) })
				}
			}
		}
		for _, t := range readTimes {
			for _, r := range reps {
				r := r
				s.At(arrival(t), func() { r.read() })
			}
		}

	case dataflow.CoordSequenced:
		// M1: a preordained total order, fully deterministic: messages by
		// global index with reads at fixed positions.
		type step struct {
			msg  *synMsg
			read bool
		}
		var order []step
		stride := len(msgs)/(w.Reads+1) + 1
		for i, m := range msgs {
			m := m
			order = append(order, step{msg: &m})
			if (i+1)%stride == 0 {
				order = append(order, step{read: true})
			}
		}
		order = append(order, step{read: true})
		at := sim.Time(0)
		for _, st := range order {
			st := st
			at += sim.Millisecond
			s.At(at, func() {
				for _, r := range reps {
					if st.read {
						r.read()
					} else {
						r.apply(*st.msg)
					}
				}
			})
		}

	case dataflow.CoordDynamicOrder:
		// M2: the ordering service decides a per-run arrival order; its
		// own hops suffer the fault plan too.
		cfg := coord.DefaultSequencer
		cfg.SubmitDelay = plan.Shape(cfg.SubmitDelay)
		cfg.DeliverDelay = plan.Shape(cfg.DeliverDelay)
		seq := coord.NewSequencer(s, cfg)
		for _, r := range reps {
			r := r
			seq.Subscribe(func(m coord.Sequenced) {
				switch v := m.Msg.(type) {
				case synMsg:
					r.apply(v)
				case string:
					r.read()
				}
			})
		}
		for _, m := range msgs {
			m := m
			s.At(sendTime(m), func() { seq.Submit(m) })
		}
		for i, t := range readTimes {
			i := i
			s.At(t, func() { seq.Submit(fmt.Sprintf("read%d", i)) })
		}

	case dataflow.CoordQuorumOrder:
		// M1q: producers stamp messages with Lamport clocks and replicas
		// deliver in (clock, producer, seq) order once the stability
		// frontier passes. The reader registers as a producer too, so
		// reads occupy preordained positions in the same total order —
		// no sequencer round trips, only heartbeats.
		cfg := coord.DefaultQuorum
		cfg.Delivery = plan.Shape(cfg.Delivery)
		cfg.HeartbeatEvery = 10 * sim.Millisecond
		q := coord.NewQuorumOrder(s, cfg)
		for _, r := range reps {
			r := r
			q.Subscribe(func(_ coord.Stamp, msg any) {
				switch v := msg.(type) {
				case synMsg:
					r.apply(v)
				case string:
					r.read()
				}
			})
		}
		producers := make([]*coord.QuorumProducer, w.Producers)
		for p := range producers {
			producers[p] = q.Producer()
		}
		reader := q.Producer()
		for pi := 0; pi < w.Producers; pi++ {
			prod := producers[pi]
			name := fmt.Sprintf("p%d", pi)
			for _, m := range msgs {
				if m.Producer != name {
					continue
				}
				m := m
				s.At(sendTime(m), func() { prod.Send(m) })
			}
		}
		for i, t := range readTimes {
			i := i
			s.At(t, func() { reader.Send(fmt.Sprintf("read%d", i)) })
		}
		end := span + sim.Millisecond
		for _, p := range producers {
			p := p
			s.At(end, p.Done)
		}
		s.At(end, reader.Done)

	case dataflow.CoordSealed, dataflow.CoordPartitionSealed:
		// M3 / M3p: per-producer partitions sealed by punctuation after the
		// producer's last message. Seals ride the producer's FIFO stream so
		// they cannot overtake data. The two differ only in what a read
		// waits for: M3 gates it on every partition, M3p on the single
		// partition it targets (and observes), so a straggler producer
		// delays only its own partition's readers.
		const allPartitions = ""
		registry := coord.NewRegistry(s, link)
		for p := 0; p < w.Producers; p++ {
			producer := fmt.Sprintf("p%d", p)
			registry.Register(producer, producer)
		}
		for ri := range reps {
			r := reps[ri]
			sealed := map[string]bool{}
			open := func(gate string) bool {
				if gate == allPartitions {
					return len(sealed) == w.Producers
				}
				return sealed[gate]
			}
			held := map[string][]func(){} // reads waiting, by gate
			release := func(gate string) {
				if !open(gate) {
					return
				}
				for _, fn := range held[gate] {
					fn()
				}
				delete(held, gate)
			}
			tracker := coord.NewSealTracker(func(partition string, buffered []any) {
				vals := make([]synMsg, 0, len(buffered))
				for _, b := range buffered {
					vals = append(vals, b.(synMsg))
				}
				sort.Slice(vals, func(i, j int) bool { return vals[i].Seq < vals[j].Seq })
				for _, m := range vals {
					r.apply(m)
				}
				sealed[partition] = true
				release(partition)
				release(allPartitions)
			})
			fifo := newFifoLink(s, link)
			for p := 0; p < w.Producers; p++ {
				producer := fmt.Sprintf("p%d", p)
				registry.Lookup(producer, func(producers []string) {
					tracker.SetExpected(producer, producers)
				})
			}
			var lastSend sim.Time
			for _, m := range msgs {
				m := m
				at := sendTime(m)
				if at > lastSend {
					lastSend = at
				}
				fifo.deliver(m.Producer, at, func() { tracker.Data(m.Producer, m) })
				if dup() {
					fifo.deliver(m.Producer, at, func() { tracker.Data(m.Producer, m) })
				}
			}
			for p := 0; p < w.Producers; p++ {
				producer := fmt.Sprintf("p%d", p)
				fifo.deliver(producer, lastSend+sim.Millisecond, func() {
					tracker.Seal(coord.Punctuation{Partition: producer, Producer: producer})
				})
			}
			// M3p reads release in partition-seal order, which legitimately
			// differs across replicas; answers are keyed by read index so
			// the trace compares query answers, not release order.
			var answers []string
			if mech == dataflow.CoordPartitionSealed {
				answers = make([]string, w.Reads)
				finalize = append(finalize, func() { r.outputs = append(r.outputs, answers...) })
			}
			for i, t := range readTimes {
				gate, read := allPartitions, r.read
				if answers != nil {
					part := fmt.Sprintf("p%d", i%w.Producers)
					gate, read = part, func() { answers[i] = part + "=" + strconv.FormatUint(r.chains[part], 16) }
				}
				s.At(arrival(t), func() {
					if open(gate) {
						read()
					} else {
						held[gate] = append(held[gate], read)
					}
				})
			}
		}

	default:
		return Outcome{}, fmt.Errorf("synthetic: unsupported mechanism %s", mech)
	}

	s.Run()
	for _, fn := range finalize {
		fn()
	}
	out := Outcome{}
	for _, r := range reps {
		out.Replicas = append(out.Replicas, r.outcome())
	}
	return out, nil
}
