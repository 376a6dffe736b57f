package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// The shrinker turns an anomalous sweep cell into a 1-minimal replayable
// counterexample by delta debugging (Zeller's ddmin) over a set of
// removable *events*: the seeds whose schedules the oracle compared, and
// the injected faults of the cell's plan decomposed into independently
// droppable pieces — delay chunks that sum back to the plan's spread, the
// duplication toggle, and partition half-windows (dropping one half
// narrows the window; dropping both removes it; splitting [a,b) at m into
// [a,m)+[m,b) is behaviourally identical under LinkConfig.Release's
// chained-window rule). The predicate is exact: a candidate reproduces
// when folding its runs yields the same Run/Inst/Diverge classification
// the full cell showed. ddmin's termination condition guarantees
// 1-minimality — removing any single remaining event changes the
// classification.

// TraceVersion identifies the replayable-trace artifact schema.
const TraceVersion = "blazes.trace/v1"

// Event is one removable ingredient of a shrunk counterexample.
type Event struct {
	// Kind is "seed", "delay", "dup", or "partition".
	Kind string `json:"kind"`
	// Seed identifies a schedule (Kind "seed").
	Seed int64 `json:"seed,omitempty"`
	// Spread is one additive chunk of the plan's DelaySpread (Kind
	// "delay").
	Spread sim.Time `json:"spread,omitempty"`
	// Dup is the plan's duplicate-delivery probability (Kind "dup").
	Dup float64 `json:"dup,omitempty"`
	// Window is one partition (half-)window (Kind "partition").
	Window *sim.PartitionWindow `json:"window,omitempty"`
}

func (e Event) String() string {
	switch e.Kind {
	case "seed":
		return fmt.Sprintf("seed %d", e.Seed)
	case "delay":
		return fmt.Sprintf("delay +%v", e.Spread)
	case "dup":
		return fmt.Sprintf("dup %g", e.Dup)
	case "partition":
		return fmt.Sprintf("partition [%v, %v)", e.Window.From, e.Window.Until)
	}
	return e.Kind
}

// minPartitionChunk bounds recursive window halving: windows shorter than
// twice this are kept whole.
const minPartitionChunk = 8 * sim.Millisecond

// splitWindow decomposes a partition window into contiguous chunks by
// recursive halving.
func splitWindow(w sim.PartitionWindow, out []sim.PartitionWindow) []sim.PartitionWindow {
	if w.Until-w.From < 2*minPartitionChunk {
		return append(out, w)
	}
	mid := w.From + (w.Until-w.From)/2
	out = splitWindow(sim.PartitionWindow{From: w.From, Until: mid}, out)
	return splitWindow(sim.PartitionWindow{From: mid, Until: w.Until}, out)
}

// planEvents decomposes a fault plan into removable events (seeds are
// appended separately).
func planEvents(plan FaultPlan) []Event {
	var events []Event
	for spread := plan.DelaySpread; spread > 0; {
		chunk := spread / 2
		if chunk < sim.Millisecond {
			chunk = spread
		}
		events = append(events, Event{Kind: "delay", Spread: chunk})
		spread -= chunk
	}
	if plan.DupProb > 0 {
		events = append(events, Event{Kind: "dup", Dup: plan.DupProb})
	}
	for _, w := range plan.Partitions {
		for _, chunk := range splitWindow(w, nil) {
			chunk := chunk
			events = append(events, Event{Kind: "partition", Window: &chunk})
		}
	}
	return events
}

// eventsPlan reassembles a fault plan (named after the original) and the
// sorted seed set from a candidate event subset.
func eventsPlan(name string, events []Event) (FaultPlan, []int64) {
	plan := FaultPlan{Name: name}
	var seeds []int64
	for _, e := range events {
		switch e.Kind {
		case "seed":
			seeds = append(seeds, e.Seed)
		case "delay":
			plan.DelaySpread += e.Spread
		case "dup":
			if e.Dup > plan.DupProb {
				plan.DupProb = e.Dup
			}
		case "partition":
			plan.Partitions = append(plan.Partitions, *e.Window)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	return plan, seeds
}

// Trace is a self-contained replayable counterexample: everything needed
// to re-execute the anomalous cell — workload by name, mechanism, the
// minimized fault plan and seed set — plus the classification it must
// reproduce. Plan and Seeds are the rendering of Events, kept explicit so
// the artifact replays without re-deriving anything.
type Trace struct {
	Version   string `json:"version"`
	Workload  string `json:"workload"`
	Mechanism string `json:"mechanism"`
	Confluent bool   `json:"confluent,omitempty"`
	Stripped  bool   `json:"stripped,omitempty"`
	// BasePlan names the original (unshrunk) fault plan.
	BasePlan string `json:"base_plan"`
	// Plan is the minimized fault plan; Seeds the minimized schedule set.
	Plan  FaultPlan `json:"plan"`
	Seeds []int64   `json:"seeds"`
	// Anomalies is the classification the trace reproduces; Detail the
	// oracle's first disagreement under it.
	Anomalies Anomalies `json:"anomalies"`
	Detail    string    `json:"detail,omitempty"`
	// Events is the 1-minimal event set the plan and seeds render.
	Events []Event `json:"events"`
	// Steps counts predicate evaluations the shrink spent.
	Steps int `json:"steps"`
}

// Encode renders the trace as indented JSON.
func (t *Trace) Encode() ([]byte, error) { return json.MarshalIndent(t, "", "  ") }

// DecodeTrace parses a trace artifact and checks its schema version.
func DecodeTrace(data []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("chaos: trace: %w", err)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("chaos: trace: unsupported version %q (want %q)", t.Version, TraceVersion)
	}
	if _, err := ParseCoordination(t.Mechanism); err != nil {
		return nil, err
	}
	if len(t.Seeds) == 0 {
		return nil, fmt.Errorf("chaos: trace: no seeds")
	}
	return &t, nil
}

// shrinker carries the fixed context of one ShrinkCell call.
type shrinker struct {
	// w is the cell's workload behind a per-call memo of its runs.
	w      Workload
	cell   Cell
	target Anomalies
	steps  int
}

func newShrinker(w Workload, cell Cell, target Anomalies) *shrinker {
	return &shrinker{w: &memoRuns{Workload: w, seen: map[runKey]Outcome{}}, cell: cell, target: target}
}

// memoRuns answers a repeated (plan, seed, mechanism) run from the first
// one. A run is a pure function of those three, and ddmin's candidates
// overlap: dropping seed events leaves the plan as it was, dropping plan
// events leaves the seeds, so over half of a shrink's probes repeat one
// already made. Only runs made through the memo fill it. The sweep's
// recorded outcomes never do, so the first probe of a shrink simulates every
// seed again and minimize's "did not reproduce" guard still checks the
// workload's determinism, not the recording.
type memoRuns struct {
	Workload
	seen map[runKey]Outcome
}

// runKey is what a run's outcome depends on; the plan's name is a label.
type runKey struct {
	spread  sim.Time
	dup     float64
	windows string // the partition windows, in order
	seed    int64
	mech    dataflow.Coordination
}

func (m *memoRuns) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	var windows []byte
	for _, w := range plan.Partitions {
		windows = strconv.AppendInt(append(windows, '['), int64(w.From), 10)
		windows = strconv.AppendInt(append(windows, ','), int64(w.Until), 10)
	}
	key := runKey{plan.DelaySpread, plan.DupProb, string(windows), seed, mech}
	if out, ok := m.seen[key]; ok {
		return out, nil
	}
	out, err := m.Workload.Run(seed, plan, mech)
	if err == nil {
		m.seen[key] = out
	}
	return out, err
}

// fold runs the candidate (plan, seeds) and returns the oracle's
// classification and first detail.
func (sh *shrinker) fold(ctx context.Context, plan FaultPlan, seeds []int64) (Anomalies, string, error) {
	oracle := NewOracle(sh.cell.Confluent)
	for _, seed := range seeds {
		if err := ctx.Err(); err != nil {
			return Anomalies{}, "", err
		}
		out, err := sh.w.Run(seed, plan, sh.cell.Mechanism)
		if err != nil {
			return Anomalies{}, "", fmt.Errorf("seed %d: %w", seed, err)
		}
		oracle.Observe(seed, out)
	}
	detail := ""
	if d := oracle.Details(); len(d) > 0 {
		detail = d[0]
	}
	return oracle.Anomalies(), detail, nil
}

// reproduces is the ddmin predicate: the candidate event set yields
// exactly the target classification.
func (sh *shrinker) reproduces(ctx context.Context, events []Event) (bool, error) {
	sh.steps++
	plan, seeds := eventsPlan(sh.cell.Plan.Name, events)
	if len(seeds) == 0 {
		return false, nil
	}
	got, _, err := sh.fold(ctx, plan, seeds)
	if err != nil {
		return false, err
	}
	return got == sh.target, nil
}

// ddmin is Zeller's minimizing delta debugging over the event set. The
// input must satisfy the predicate; the result is 1-minimal: the final
// n == len(events) round tried every single-event removal and none
// reproduced.
func (sh *shrinker) ddmin(ctx context.Context, events []Event) ([]Event, error) {
	n := 2
	for len(events) >= 2 {
		chunk := (len(events) + n - 1) / n
		reduced := false
		// Try each subset (one chunk alone), then each complement (all
		// but one chunk).
		for start := 0; start < len(events); start += chunk {
			end := start + chunk
			if end > len(events) {
				end = len(events)
			}
			subset := events[start:end]
			ok, err := sh.reproduces(ctx, subset)
			if err != nil {
				return nil, err
			}
			if ok {
				events = append([]Event{}, subset...)
				n = 2
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		for start := 0; start < len(events); start += chunk {
			end := start + chunk
			if end > len(events) {
				end = len(events)
			}
			complement := append(append([]Event{}, events[:start]...), events[end:]...)
			ok, err := sh.reproduces(ctx, complement)
			if err != nil {
				return nil, err
			}
			if ok {
				events = complement
				if n > 2 {
					n--
				}
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		if n >= len(events) {
			break
		}
		n *= 2
		if n > len(events) {
			n = len(events)
		}
	}
	return events, nil
}

// minimize checks that events reproduce the target, delta-debugs them to a
// 1-minimal set and renders the trace, its plan named base. A full event
// set that does not reproduce is reported as stale rather than shrunk into
// garbage.
func (sh *shrinker) minimize(ctx context.Context, events []Event, base string, stale error) (*Trace, error) {
	if ok, err := sh.reproduces(ctx, events); err != nil {
		return nil, err
	} else if !ok {
		return nil, stale
	}
	minimal, err := sh.ddmin(ctx, events)
	if err != nil {
		return nil, err
	}
	plan, seeds := eventsPlan(base, minimal)
	_, detail, err := sh.fold(ctx, plan, seeds)
	if err != nil {
		return nil, err
	}
	return &Trace{
		Version:   TraceVersion,
		Workload:  sh.cell.Workload,
		Mechanism: sh.cell.Mechanism.String(),
		Confluent: sh.cell.Confluent,
		Stripped:  sh.cell.Stripped,
		BasePlan:  base,
		Plan:      plan,
		Seeds:     seeds,
		Anomalies: sh.target,
		Detail:    detail,
		Events:    minimal,
		Steps:     sh.steps,
	}, nil
}

// cellEvents is the classification a cell's recorded outcomes fold to and
// the event set a shrink of it starts from.
func cellEvents(cell Cell, outcomes []Outcome) (Anomalies, []Event, error) {
	target := FoldCell(cell, outcomes).Observed
	if !target.Any() {
		return target, nil, fmt.Errorf("chaos: %s under %s/%s: no anomaly to shrink", cell.Workload, cell.Mechanism, cell.Plan.Name)
	}

	// Oracle folding is prefix-monotone, so the shortest prefix of the
	// recorded outcomes already matching the classification is a free
	// first reduction of the schedule set.
	prefix := len(outcomes)
	for k := 1; k <= len(outcomes); k++ {
		oracle := NewOracle(cell.Confluent)
		for i := 0; i < k; i++ {
			oracle.Observe(int64(i+1), outcomes[i])
		}
		if oracle.Anomalies() == target {
			prefix = k
			break
		}
	}

	events := make([]Event, 0, prefix+4)
	for seed := 1; seed <= prefix; seed++ {
		events = append(events, Event{Kind: "seed", Seed: int64(seed)})
	}
	return target, append(events, planEvents(cell.Plan)...), nil
}

// ShrinkCell delta-debugs an anomalous cell down to a 1-minimal replayable
// trace. outcomes are the cell's recorded per-seed outcomes (outcomes[i] =
// seed i+1), used to pick the shortest seed prefix that already shows the
// cell's classification before any new runs happen; pass nil to have
// ShrinkCell re-run the cell first.
func ShrinkCell(ctx context.Context, w Workload, cell Cell, outcomes []Outcome) (*Trace, error) {
	if outcomes == nil {
		var err error
		outcomes, err = RunCell(ctx, w, cell, nil, 1, cell.Seeds+1)
		if err != nil {
			return nil, err
		}
	}
	target, events, err := cellEvents(cell, outcomes)
	if err != nil {
		return nil, err
	}
	sh := newShrinker(w, cell, target)
	// Cannot happen for deterministic workloads: the prefix fold already
	// matched.
	return sh.minimize(ctx, events, cell.Plan.Name, fmt.Errorf("chaos: %s under %s/%s: cell anomalies did not reproduce from recorded seeds",
		cell.Workload, cell.Mechanism, cell.Plan.Name))
}

// traceShrinker resolves a trace's workload by name and builds the shrinker
// that re-executes it.
func traceShrinker(tr *Trace) (*shrinker, error) {
	w, err := LookupWorkload(tr.Workload)
	if err != nil {
		return nil, err
	}
	mech, err := ParseCoordination(tr.Mechanism)
	if err != nil {
		return nil, err
	}
	return newShrinker(w, Cell{
		Workload:  tr.Workload,
		Mechanism: mech,
		Plan:      tr.Plan,
		Seeds:     len(tr.Seeds),
		Confluent: tr.Confluent,
		Stripped:  tr.Stripped,
	}, tr.Anomalies), nil
}

// ReshrinkTrace re-runs delta debugging over an existing trace's event set
// without repeating the sweep that produced it — the corpus-maintenance
// path behind `blazes verify -reshrink`: after the shrinker or a workload
// improves, stored traces can be re-minimized in place. The workload is
// resolved by name and the recorded classification is the target; if it no
// longer reproduces from the recorded events the trace is stale and an
// error says so. The result is a fresh 1-minimal trace with the same
// identity fields (workload, mechanism, base plan, anomalies).
func ReshrinkTrace(ctx context.Context, tr *Trace) (*Trace, error) {
	sh, err := traceShrinker(tr)
	if err != nil {
		return nil, err
	}
	events := tr.Events
	if len(events) == 0 {
		// Artifacts written before events were recorded: rebuild the event
		// set from the rendered plan and seeds.
		for _, s := range tr.Seeds {
			events = append(events, Event{Kind: "seed", Seed: s})
		}
		events = append(events, planEvents(tr.Plan)...)
	}
	return sh.minimize(ctx, events, tr.BasePlan, fmt.Errorf("chaos: reshrink %s under %s/%s: recorded anomalies no longer reproduce from the recorded events",
		tr.Workload, tr.Mechanism, tr.BasePlan))
}

// ReplayResult is the verdict of re-executing a trace.
type ReplayResult struct {
	// Reproduced: the replay yielded exactly the trace's classification.
	Reproduced bool `json:"reproduced"`
	// Observed and Expected are the replayed and recorded classifications.
	Observed Anomalies `json:"observed"`
	Expected Anomalies `json:"expected"`
	// Detail is the oracle's first disagreement during the replay.
	Detail string `json:"detail,omitempty"`
}

// Replay re-executes a trace — workload resolved by name, every seed run
// under the minimized plan and mechanism, outcomes folded in seed order —
// and compares the classification against the recorded one. Runs are
// seed-deterministic, so a trace that reproduced when it was shrunk
// reproduces on every replay.
func Replay(ctx context.Context, tr *Trace) (*ReplayResult, error) {
	sh, err := traceShrinker(tr)
	if err != nil {
		return nil, err
	}
	observed, detail, err := sh.fold(ctx, tr.Plan, tr.Seeds)
	if err != nil {
		return nil, fmt.Errorf("chaos: replay %s under %s/%s: %w", tr.Workload, tr.Mechanism, tr.Plan.Name, err)
	}
	return &ReplayResult{
		Reproduced: observed == tr.Anomalies,
		Observed:   observed,
		Expected:   tr.Anomalies,
		Detail:     detail,
	}, nil
}
