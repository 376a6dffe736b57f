package chaos

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

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
		return strings.Join(slices.Sorted(maps.Keys(r.set)), ",")
	}
	if r.convergent {
		return r.regVal
	}
	parts := slices.Sorted(maps.Keys(r.chains))
	for i, k := range parts {
		parts[i] = k + "=" + strconv.FormatUint(r.chains[k], 16)
	}
	// Sorted again as strings: "p10=…" sorts before "p1=…".
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

// Run implements Workload: the logical workload — who sends what when, M1's
// order, the punctuations — is laid out here; carrying it is delivery's job.
func (w *SyntheticWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	const span = 80 * sim.Millisecond
	perPartition := mech == dataflow.CoordPartitionSealed
	reps := make([]*synReplica, w.Replicas)
	for i := range reps {
		reps[i] = newSynReplica(w)
		// Merge rewrite installs no delivery protocol: replicas run the
		// declared commutative merge over the same chaotic uncoordinated
		// schedule, and order-insensitivity of the merge does the rest.
		reps[i].merge = mech == dataflow.CoordMergeRewrite && !w.Confluent
		if perPartition {
			reps[i].outputs = make([]string, w.Reads)
		}
	}
	if mech == dataflow.CoordMergeRewrite {
		mech = dataflow.CoordNone
	}

	// Each producer paces its messages across the span, all on one cadence,
	// and is its own partition, sealed a millisecond after its last message.
	total := w.Producers * w.PerProducer
	data := make([]synMsg, 0, total)
	msgs := make([]message, 0, total+w.Reads)
	seals := make([]seal, w.Producers)
	for p := range seals {
		producer := "p" + strconv.Itoa(p)
		var at sim.Time
		for i := 0; i < w.PerProducer; i++ {
			at = span * sim.Time(i*w.Producers) / sim.Time(total)
			data = append(data, synMsg{Producer: producer, Stamp: i*w.Producers + p + 1, ID: producer + ":" + strconv.Itoa(i)})
			msgs = append(msgs, message{at: at, producer: producer, partition: producer})
		}
		seals[p] = seal{coord.Punctuation{Partition: producer, Producer: producer}, at + sim.Millisecond}
	}
	// Reads are posed at the replica, so nothing retransmits them. A read
	// observes the whole state, and under sealing waits for all of it —
	// except under M3p, where read i targets (and observes) one partition.
	// Those release in partition-seal order, which legitimately differs
	// across replicas, so each answer lands at its read's index: the trace
	// compares query answers, not release order.
	for i := 0; i < w.Reads; i++ {
		m := message{at: span * sim.Time(i+1) / sim.Time(w.Reads+1), read: true, once: true}
		if perPartition {
			m.partition = "p" + strconv.Itoa(i%w.Producers)
		}
		msgs = append(msgs, m)
	}
	// M1: messages by global index with a read at fixed positions.
	var order []int
	stride := total/(w.Reads+1) + 1
	for i := range data {
		order = append(order, i)
		if (i+1)%stride == 0 {
			order = append(order, total)
		}
	}
	order = append(order, total)

	s := sim.New(seed)
	d := delivery{
		s:        s,
		plan:     plan,
		link:     sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 12 * sim.Millisecond},
		replicas: len(reps),
		msgs:     msgs,
		order:    order,
		seals:    seals,
		apply: func(ri, i int) {
			r := reps[ri]
			switch {
			case i < total:
				r.apply(data[i])
			case perPartition:
				part := msgs[i].partition
				r.outputs[i-total] = part + "=" + strconv.FormatUint(r.chains[part], 16)
			default:
				r.read()
			}
		},
	}
	if err := d.install(mech); err != nil {
		return Outcome{}, fmt.Errorf("synthetic: %w", err)
	}
	s.Run()

	out := Outcome{}
	for _, r := range reps {
		out.Replicas = append(out.Replicas, r.outcome())
	}
	s.Release()
	return out, nil
}
