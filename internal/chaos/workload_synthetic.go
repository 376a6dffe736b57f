package chaos

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"sync"

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

	// plans[1] is the plan the fields above determine under M3p, plans[0]
	// under every other mechanism; set the fields before the first Run.
	plans [2]once[*synPlan]
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
	src := g.Source("msgs", "Synthetic", "msgs")
	if w.Gated && !w.Confluent && !w.Convergent {
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
	case dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder, dataflow.CoordSealed,
		dataflow.CoordQuorumOrder:
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
	seen                  map[string]bool
	set                   map[string]bool // confluent: a grow-only set
	// convergent: a last-writer-wins register.
	regStamp int
	regVal   string
	chains   map[string]uint64 // order-sensitive: per-producer hash chains
	outputs  []string
	keys     []string // snapshot's scratch
}

// synReleased holds replicas a run handed back, their maps to be cleared
// and filled again by the next run's newSynReplica.
var synReleased sync.Pool

// newSynReplica returns an empty replica: a released one with its maps
// cleared, or a new one with its maps sized once for every message of the
// run (a map grown from empty by insertion allocates each of its sizes on
// the way).
func newSynReplica(w *SyntheticWorkload) *synReplica {
	total := w.Producers * w.PerProducer
	r, _ := synReleased.Get().(*synReplica)
	if r == nil {
		r = &synReplica{seen: make(map[string]bool, total), set: make(map[string]bool, total),
			chains: make(map[string]uint64, w.Producers)}
	}
	clear(r.seen)
	clear(r.set)
	clear(r.chains)
	*r = synReplica{confluent: w.Confluent, convergent: w.Convergent, seen: r.seen,
		set: r.set, chains: r.chains, keys: r.keys}
	return r
}

// release hands the replica back for a later run; its outputs went into the
// outcome and stay there.
func (r *synReplica) release() {
	r.outputs = nil
	synReleased.Put(r)
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
	r.chains[m.Producer] = synChainHash(r.chains[m.Producer], m.value())
}

func (r *synReplica) read() { r.outputs = append(r.outputs, r.snapshot()) }

func (r *synReplica) snapshot() string {
	if r.confluent {
		//lint:allow maporder the keys are sorted before anything reads them
		r.keys = slices.AppendSeq(r.keys[:0], maps.Keys(r.set))
		slices.Sort(r.keys)
		return writeText(func(b []byte) []byte {
			for i, k := range r.keys {
				if i > 0 {
					b = append(b, ',')
				}
				b = append(b, k...)
			}
			return b
		})
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

// outcome is what the replica showed; the run hands it its outputs, which
// the replica writes no more.
func (r *synReplica) outcome() ReplicaOutcome {
	return ReplicaOutcome{Trace: r.outputs, Final: r.snapshot()}
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

// synPlan is the logical workload — who sends what when, M1's order, the
// punctuations — which the workload and whether the mechanism is M3p fix.
// msgs lists the data first, then the seals, then the reads; data[i] is
// msgs[i]'s message.
type synPlan struct {
	data  []synMsg
	msgs  []coord.Message
	order []int // M1's, as indexes of msgs
}

// layout lays out the logical workload, under M3p when perPartition;
// carrying it is delivery's job.
func (w *SyntheticWorkload) layout(perPartition bool) *synPlan {
	const span = 80 * sim.Millisecond
	// Each producer paces its messages across the span, all on one cadence,
	// and is its own partition, sealed a millisecond after its last message.
	// The data come first in msgs, then the seals, then the reads.
	total := w.Producers * w.PerProducer
	reads := total + w.Producers
	data := make([]synMsg, 0, total)
	msgs := make([]coord.Message, total, reads+w.Reads)
	for p := range w.Producers {
		producer := "p" + strconv.Itoa(p)
		var at sim.Time
		for i := 0; i < w.PerProducer; i++ {
			at = span * sim.Time(i*w.Producers) / sim.Time(total)
			data = append(data, synMsg{Producer: producer, Stamp: i*w.Producers + p + 1, ID: producer + ":" + strconv.Itoa(i)})
			msgs[len(data)-1] = coord.Message{At: at, Producer: producer, Partition: producer}
		}
		msgs = append(msgs, coord.Message{At: at + sim.Millisecond, Producer: producer, Partition: producer, Seal: true})
	}
	// Reads are posed at the replica, so nothing retransmits them. A read
	// observes the whole state, and under sealing waits for all of it —
	// except under M3p, where read i targets (and observes) one partition.
	// Those release in partition-seal order, which legitimately differs
	// across replicas, so each answer lands at its read's index: the trace
	// compares query answers, not release order.
	for i := 0; i < w.Reads; i++ {
		m := coord.Message{At: span * sim.Time(i+1) / sim.Time(w.Reads+1), Read: true, Once: true}
		if perPartition {
			m.Partition = "p" + strconv.Itoa(i%w.Producers)
		}
		msgs = append(msgs, m)
	}
	// M1: messages by global index with a read at fixed positions.
	var order []int
	stride := total/(w.Reads+1) + 1
	for i := range data {
		order = append(order, i)
		if (i+1)%stride == 0 {
			order = append(order, reads)
		}
	}
	order = append(order, reads)
	return &synPlan{data: data, msgs: msgs, order: order}
}

// Run implements Workload.
func (w *SyntheticWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	perPartition := mech == dataflow.CoordPartitionSealed
	k := 0
	if perPartition {
		k = 1
	}
	p, _ := w.plans[k].get(func() (*synPlan, error) { return w.layout(perPartition), nil })
	data, msgs := p.data, p.msgs
	total := w.Producers * w.PerProducer
	reads := total + w.Producers
	reps := make([]*synReplica, w.Replicas)
	for i := range reps {
		reps[i] = newSynReplica(w)
		if perPartition {
			reps[i].outputs = make([]string, w.Reads)
		}
	}

	s := sim.New(seed)
	d := plan.delivery(s, sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 12 * sim.Millisecond})
	d.Replicas = len(reps)
	d.Msgs = msgs
	d.Order = p.order
	d.Apply = func(ri, i int) {
		r := reps[ri]
		switch {
		case i < total:
			r.apply(data[i])
		case perPartition:
			part := msgs[i].Partition
			r.outputs[i-reads] = part + "=" + strconv.FormatUint(r.chains[part], 16)
		default:
			r.read()
		}
	}
	if err := d.Install(mech); err != nil {
		return Outcome{}, fmt.Errorf("synthetic: %w", err)
	}
	s.Run()
	if _, err := d.Result(); err != nil {
		return Outcome{}, fmt.Errorf("synthetic: %w", err)
	}
	d.Release()

	out := Outcome{}
	for _, r := range reps {
		out.Replicas = append(out.Replicas, r.outcome())
		r.release()
	}
	s.Release()
	return out, nil
}
