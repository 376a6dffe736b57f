// Package chaos is the schedule-exploration verification harness: it runs a
// workload (a Storm topology, a replicated Bloom module, the wordcount or
// the ad network) under many seeded delivery schedules with injected faults
// — reordering, duplication, bounded extra delay, partition-then-heal — and
// feeds the per-replica outcomes to a confluence oracle that detects the
// paper's three anomaly classes (cross-run and cross-instance
// nondeterminism, replica divergence — Figure 5's observable axes, which
// experiments.Fig5Matrix regenerates from this package's synthetic workload
// and oracle). The harness closes the loop with the analyzer: Check derives
// the dataflow's verdict, runs the workload under whatever coordination
// Synthesize recommends and asserts outcome invariance, then strips the
// coordination from non-confluent programs and asserts the predicted
// divergence actually occurs — the paper's Section VIII spot-checks turned
// into a reusable property checker.
package chaos

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"blazes/internal/coord"
	"blazes/internal/sim"
)

// FaultPlan is one adversarial delivery configuration, applied uniformly to
// every network link a workload uses (including the hops of the ordering
// service, when one is installed).
type FaultPlan struct {
	// Name labels the plan in reports.
	Name string `json:"name"`
	// DelaySpread widens each link's MaxDelay, increasing reordering.
	DelaySpread sim.Time `json:"delay_spread,omitempty"`
	// DupProb raises each link's duplicate-delivery probability to at least
	// this value; only a link's at-least-once sends consult it (sim.Link).
	DupProb float64 `json:"dup_prob,omitempty"`
	// Partitions cuts every link during these windows; messages sent
	// while a window is open are buffered and flushed at heal time.
	Partitions []sim.PartitionWindow `json:"partitions,omitempty"`
}

// Shape applies the plan to a link configuration.
func (p FaultPlan) Shape(cfg sim.LinkConfig) sim.LinkConfig {
	if cfg.MaxDelay < cfg.MinDelay {
		cfg.MaxDelay = cfg.MinDelay
	}
	cfg.MaxDelay += p.DelaySpread
	if p.DupProb > cfg.DupProb {
		cfg.DupProb = p.DupProb
	}
	if len(p.Partitions) > 0 {
		cfg.Partitions = append(append([]sim.PartitionWindow{}, cfg.Partitions...), p.Partitions...)
	}
	return cfg
}

// shapeSequencer applies the plan to both hops of an ordering service.
func (p FaultPlan) shapeSequencer(cfg coord.SequencerConfig) coord.SequencerConfig {
	cfg.SubmitDelay = p.Shape(cfg.SubmitDelay)
	cfg.DeliverDelay = p.Shape(cfg.DeliverDelay)
	return cfg
}

// delivery is a run's coord.Delivery with every hop a mechanism sends on
// shaped by the plan: link, the workload's direct sender→replica hop, and
// the default ordering service and quorum order, the latter heartbeating
// every 10ms.
func (p FaultPlan) delivery(s *sim.Sim, link sim.LinkConfig) coord.Delivery {
	return coord.Delivery{
		Sim:       s,
		Link:      p.Shape(link),
		Sequencer: p.shapeSequencer(coord.DefaultSequencer),
		Quorum:    coord.QuorumConfig{Delivery: p.Shape(coord.DefaultQuorum.Delivery), HeartbeatEvery: 10 * sim.Millisecond},
	}
}

// DefaultPlans is the standard adversarial sweep: a baseline with the
// workload's native jitter, a heavy-reorder plan, an at-least-once plan,
// and a partition that heals mid-run.
func DefaultPlans() []FaultPlan {
	return []FaultPlan{
		{Name: "baseline"},
		{Name: "reorder", DelaySpread: 8 * sim.Millisecond},
		{Name: "duplicate", DelaySpread: 4 * sim.Millisecond, DupProb: 0.25},
		{Name: "partition", DelaySpread: 2 * sim.Millisecond,
			Partitions: []sim.PartitionWindow{{From: 15 * sim.Millisecond, Until: 60 * sim.Millisecond}}},
	}
}

// ReplicaOutcome is one replica's observable behaviour in one run.
type ReplicaOutcome struct {
	// Trace is the canonicalized sequence of outputs the replica emitted
	// during the run (e.g. query answers keyed by request id). Workloads
	// canonicalize entries so that only content — not delivery timing
	// within one response — distinguishes traces.
	Trace []string `json:"trace,omitempty"`
	// Final is a canonical digest of the replica's terminal state (and,
	// where the workload defines it, the answers it gives at quiescence).
	Final string `json:"final"`
}

// Outcome is the observable result of one seeded run: one entry per
// replica. Single-store workloads (the wordcount) may add a synthetic
// "ground truth" replica whose Final is the schedule-independent expected
// result, so within-run comparison also checks exactness.
type Outcome struct {
	Replicas []ReplicaOutcome `json:"replicas"`
}

// Anomalies records which of the paper's anomaly classes a sweep exhibited
// (Figure 5's observable axes).
type Anomalies struct {
	// Run: the same configuration produced different outcomes on
	// different schedules (cross-run nondeterminism).
	Run bool `json:"run"`
	// Inst: two replicas emitted different outputs within one run
	// (cross-instance nondeterminism).
	Inst bool `json:"inst"`
	// Diverge: replica terminal states differ within one run.
	Diverge bool `json:"diverge"`
}

// Any reports whether any anomaly was observed.
func (a Anomalies) Any() bool { return a.Run || a.Inst || a.Diverge }

// Within reports whether the observed anomalies are a subset of allowed.
func (a Anomalies) Within(allowed Anomalies) bool {
	return (!a.Run || allowed.Run) && (!a.Inst || allowed.Inst) && (!a.Diverge || allowed.Diverge)
}

func (a Anomalies) String() string {
	mark := func(b bool) string {
		if b {
			return "X"
		}
		return "-"
	}
	return fmt.Sprintf("Run:%s Inst:%s Div:%s", mark(a.Run), mark(a.Inst), mark(a.Diverge))
}

// Oracle diffs replica outcomes within and across seeded runs and
// classifies disagreements into the three anomaly classes. For confluent
// components the oracle compares eventual outcomes only: transient output
// subsets are the benign Async behaviour the paper permits, not an anomaly.
type Oracle struct {
	confluent bool
	baseSeed  int64
	base      *Outcome
	observed  Anomalies
	details   []string
}

// NewOracle creates an oracle; confluent selects eventual-outcome-only
// comparison.
func NewOracle(confluent bool) *Oracle { return &Oracle{confluent: confluent} }

// same reports whether two replica outcomes agree on what the component's
// property lets the oracle compare: the final state alone when it is
// confluent, the trace and the final state otherwise. It compares in place;
// comparable builds the same projection as one list, for the note.
func (o *Oracle) same(a, b ReplicaOutcome) bool {
	return a.Final == b.Final && (o.confluent || slices.Equal(a.Trace, b.Trace))
}

// comparable projects a replica outcome onto the comparison the component's
// property warrants.
func (o *Oracle) comparable(r ReplicaOutcome) []string {
	if o.confluent {
		return []string{r.Final}
	}
	return append(append([]string{}, r.Trace...), r.Final)
}

func (o *Oracle) note(format string, args ...any) {
	if len(o.details) < 8 {
		o.details = append(o.details, fmt.Sprintf(format, args...))
	}
}

// Observe folds one seeded run into the oracle.
func (o *Oracle) Observe(seed int64, out Outcome) {
	if len(out.Replicas) == 0 {
		return
	}
	r0 := out.Replicas[0]
	for i, r := range out.Replicas[1:] {
		if !o.observed.Inst && !o.same(r0, r) {
			o.observed.Inst = true
			o.note("seed %d: replica %d trace differs from replica 0: %s", seed, i+1,
				firstDiff(o.comparable(r0), o.comparable(r)))
		}
		if r.Final != r0.Final && !o.observed.Diverge {
			o.observed.Diverge = true
			o.note("seed %d: replica %d final state diverges from replica 0: %s", seed, i+1,
				firstDiff([]string{r0.Final}, []string{r.Final}))
		}
	}
	if o.base == nil {
		o.baseSeed, o.base = seed, &out
		return
	}
	if !o.observed.Run && !o.same(o.base.Replicas[0], r0) {
		o.observed.Run = true
		o.note("seeds %d vs %d: replica 0 outcome differs across schedules: %s", o.baseSeed, seed,
			firstDiff(o.comparable(o.base.Replicas[0]), o.comparable(r0)))
	}
}

// Anomalies returns the classes observed so far.
func (o *Oracle) Anomalies() Anomalies { return o.observed }

// Details returns human-readable descriptions of the first disagreement
// seen per class.
func (o *Oracle) Details() []string { return o.details }

// firstDiff renders the first differing position of two traces, clipped.
func firstDiff(a, b []string) string {
	clip := func(s string) string {
		if len(s) > 96 {
			return s[:96] + "…"
		}
		return s
	}
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("entry %d: %q vs %q", i, clip(a[i]), clip(b[i]))
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

// digestSep separates the labeled parts of a digest.
const digestSep = " | "

// textBufs lends the buffer a digest is written into.
var textBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeText returns the text write appends to an empty buffer: of a text
// written in pieces, only the string kept is allocated.
func writeText(write func([]byte) []byte) string {
	buf := textBufs.Get().(*[]byte)
	b := write((*buf)[:0])
	text := string(b)
	*buf = b
	textBufs.Put(buf)
	return text
}

// canonSet canonicalizes an unordered collection of strings.
func canonSet(items []string) string {
	sorted := append([]string{}, items...)
	sort.Strings(sorted)
	return strings.Join(sorted, ",")
}
