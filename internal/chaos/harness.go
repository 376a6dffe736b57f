package chaos

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// Workload is a runnable system under test: it exposes its annotated
// dataflow for analysis and can execute one seeded run under a fault plan
// with a chosen delivery mechanism installed (CoordNone strips all
// coordination).
//
// Run must be safe for concurrent calls with distinct seeds: the parallel
// sweep explores many seeded schedules at once, each on its own simulator.
// Every built-in workload satisfies this by splitting a run in two. What is
// a function of (seed, plan, mechanism) — the simulator, the replicas, their
// nodes and stores, every queue — belongs to one Run: it is constructed
// there, or taken up emptied from an earlier run that handed it back to a
// released pool at package level beside the code that fills it
// (sim.Sim.Release, bloom.Node.Release, coord.Delivery.Release), and handed
// back once the outcome is read. What is a function of the workload alone —
// a click plan and its rows, a validated module, a generated graph's
// indexes, a ground truth — may be built once and shared by every run,
// under one rule: it lives in a once on the workload value, never at
// package level, it is never pooled, and nothing writes to it after the
// once (TestScheduleCannotSeeItsNeighbours).
type Workload interface {
	// Name identifies the workload in reports.
	Name() string
	// Graph returns the annotated dataflow the analyzer reasons about.
	Graph() (*dataflow.Graph, error)
	// Supports reports whether the workload can install mech.
	Supports(mech dataflow.Coordination) bool
	// Run executes one seeded schedule and returns the observable outcome.
	Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error)
}

// once holds the shared half of a workload's runs (see Workload): the first
// run that needs it builds it, every later and concurrent run reads it.
type once[T any] struct {
	sync.Once
	v   T
	err error
}

func (o *once[T]) get(build func() (T, error)) (T, error) {
	o.Do(func() { o.v, o.err = build() })
	return o.v, o.err
}

// Config tunes a verification run.
type Config struct {
	// Seeds is the number of schedules explored per (mechanism, plan)
	// configuration; 0 selects DefaultSeeds. Negative is an error.
	Seeds int
	// Plans is the fault-plan sweep; nil selects DefaultPlans.
	Plans []FaultPlan
	// Prefer names strategies synthesis tries, in order, before the
	// default sealing-then-ordering chain (dataflow.SynthesisOptions.Prefer);
	// "sealing,sequencing" on the wire is []string{"sealing", "sequencing"}
	// here. Unknown names are rejected.
	Prefer []string
	// Parallelism must be 0 or 1, and nothing reads it: a sweep runs one
	// worker per GOMAXPROCS. The field exists only because
	// benchmark/sweep.go names it, and goes when that line does (ROADMAP
	// item 1(f)).
	Parallelism int
}

// validate rejects configurations that previously slipped through
// silently: Seeds is defaulted only at its documented sentinel 0, never for
// an arbitrary negative.
func (cfg Config) validate() error {
	if cfg.Seeds < 0 {
		return fmt.Errorf("chaos: Seeds must be non-negative (got %d; 0 selects the default %d)", cfg.Seeds, DefaultSeeds)
	}
	if cfg.Parallelism != 0 && cfg.Parallelism != 1 {
		return fmt.Errorf("chaos: Parallelism %d: must be 0 or 1; a sweep runs one worker per GOMAXPROCS", cfg.Parallelism)
	}
	if err := dataflow.CheckStrategies(cfg.Prefer); err != nil {
		return fmt.Errorf("chaos: %w", err)
	}
	return nil
}

// DefaultSeeds is the schedule count the acceptance bar demands per
// configuration.
const DefaultSeeds = 64

// Sweep is the oracle verdict for one (mechanism, plan) configuration
// explored across Seeds schedules.
type Sweep struct {
	Mechanism string    `json:"mechanism"`
	Plan      string    `json:"plan"`
	Seeds     int       `json:"seeds"`
	Observed  Anomalies `json:"observed"`
	Allowed   Anomalies `json:"allowed"`
	// OK: the observed anomalies are within what Figure 5 permits for the
	// mechanism.
	OK bool `json:"ok"`
	// Detail describes the first disagreement found (empty when none).
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of one Check: the analyzer's verdict, the
// synthesized strategies, and the oracle verdicts for the coordinated and
// stripped sweeps.
type Report struct {
	Workload      string   `json:"workload"`
	Verdict       string   `json:"verdict"`
	Deterministic bool     `json:"deterministic"`
	Strategies    []string `json:"strategies,omitempty"`
	// Coordinated holds one sweep per (recommended mechanism, plan):
	// outcome invariance under the synthesized coordination (or, for
	// confluent programs, under no coordination at all).
	Coordinated []Sweep `json:"coordinated"`
	// Uncoordinated holds the divergence-reproduction sweeps: the same
	// non-confluent program with coordination stripped. Empty for
	// confluent programs.
	Uncoordinated []Sweep `json:"uncoordinated,omitempty"`
	// DivergenceReproduced: at least one stripped sweep exhibited an
	// anomaly, confirming the coordination was load-bearing. Vacuously
	// true when there is nothing to strip: confluent programs, and
	// workloads that cannot run uncoordinated (no stripped sweeps are
	// listed in either case).
	DivergenceReproduced bool `json:"divergence_reproduced"`
	// Holds: the two-sided guarantee held — every coordinated sweep was
	// outcome-invariant (within Figure 5's allowance) and, for
	// non-confluent programs, stripping coordination reproduced
	// divergence.
	Holds bool `json:"holds"`
}

// allowedAnomalies encodes Figure 5's row for each mechanism: sealing
// (whole or per-partition) and preordained orders (sequencing, quorum
// stamps) eliminate every class; a dynamic ordering service removes
// replication anomalies but not cross-run nondeterminism; a confluent
// component needs nothing (on the eventual-outcome comparison).
func allowedAnomalies(mech dataflow.Coordination) Anomalies {
	if mech == dataflow.CoordDynamicOrder {
		return Anomalies{Run: true}
	}
	return Anomalies{}
}

// ParseCoordination resolves the canonical mechanism string (the
// Coordination String form used in every Sweep and Trace) back to the
// enum — the inverse trace replay relies on.
func ParseCoordination(s string) (dataflow.Coordination, error) {
	c, err := dataflow.ParseCoordination(s)
	if err != nil {
		return c, fmt.Errorf("chaos: %w", err)
	}
	return c, nil
}

// Cell identifies one independently runnable sweep cell of a Check: a
// (workload, mechanism, fault plan) configuration and the seed range
// [1, Seeds] it explores. A cell's seeds can run in several ranges and the
// partial outcomes merge in seed order without changing a byte of the
// verdict.
type Cell struct {
	// Workload names the workload (resolvable via LookupWorkload).
	Workload string
	// Mechanism is the coordination every run of the cell installs.
	Mechanism dataflow.Coordination
	// Plan is the fault plan shaping every link.
	Plan FaultPlan
	// Seeds is the schedule count; the cell explores seeds 1..Seeds.
	Seeds int
	// Confluent selects the oracle's eventual-outcome-only comparison
	// (bare runs of certified-confluent programs).
	Confluent bool
	// Stripped marks a divergence-reproduction sweep: coordination removed,
	// observed anomalies documented rather than held to an allowance.
	Stripped bool
}

// CheckPlan is the execution plan of one Check: the analyzer's verdict and
// the ordered cells to sweep. PlanCheck derives it; FoldCell turns each
// cell's outcomes into its Sweep; Assemble reassembles the Report. Check
// itself is exactly plan → run → fold → assemble, so any other executor
// (the benchmark, which times each stage) that preserves cell order and
// seed-ordered folding produces byte-identical reports.
type CheckPlan struct {
	// Workload is the planned workload.
	Workload Workload
	// Verdict, Deterministic, Strategies mirror the Report header.
	Verdict       string
	Deterministic bool
	Strategies    []string
	// Cells lists the sweeps to run, coordinated cells first, stripped
	// cells last, in the exact order Check appends them.
	Cells []Cell
	// VacuousReproduction marks plans with nothing to strip (confluent
	// programs, or workloads that cannot run uncoordinated):
	// DivergenceReproduced is vacuously true.
	VacuousReproduction bool
}

// PlanCheck analyzes the workload's dataflow, synthesizes coordination and
// lays out the sweep cells Check would run, without running any of them.
func PlanCheck(w Workload, cfg Config) (*CheckPlan, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Seeds == 0 {
		cfg.Seeds = DefaultSeeds
	}
	if cfg.Plans == nil {
		cfg.Plans = DefaultPlans()
	}
	g, err := w.Graph()
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: graph: %w", w.Name(), err)
	}
	an, err := dataflow.Analyze(g)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: analyze: %w", w.Name(), err)
	}
	p := &CheckPlan{
		Workload:      w,
		Verdict:       an.Verdict.String(),
		Deterministic: an.Deterministic(),
	}

	// A deterministic verdict does not by itself mean "run bare": when the
	// determinism rests on sealed inputs, the runtime must still install
	// the punctuation/voting protocol, and Synthesize says so. Only a
	// deterministic program with *no* synthesized strategies is confluent
	// in the run-it-bare sense.
	strategies := dataflow.Synthesize(an, dataflow.SynthesisOptions{Prefer: cfg.Prefer})
	bare := an.Deterministic() && len(strategies) == 0

	var mechs []dataflow.Coordination
	if bare {
		mechs = []dataflow.Coordination{dataflow.CoordNone}
	} else {
		seen := map[dataflow.Coordination]bool{}
		for _, st := range strategies {
			p.Strategies = append(p.Strategies, st.String())
			if st.Mechanism == dataflow.CoordNone || seen[st.Mechanism] {
				continue
			}
			seen[st.Mechanism] = true
			if w.Supports(st.Mechanism) {
				mechs = append(mechs, st.Mechanism)
			}
		}
		if len(mechs) == 0 {
			return nil, fmt.Errorf("chaos: %s: analyzer recommends %v but the workload supports none of it",
				w.Name(), p.Strategies)
		}
	}

	for _, mech := range mechs {
		for _, plan := range cfg.Plans {
			p.Cells = append(p.Cells, Cell{
				Workload:  w.Name(),
				Mechanism: mech,
				Plan:      plan,
				Seeds:     cfg.Seeds,
				Confluent: bare,
			})
		}
	}
	if bare || !w.Supports(dataflow.CoordNone) {
		// Nothing to strip: either the program is confluent, or the
		// workload cannot run uncoordinated — the reproduction half of
		// the check is vacuous and must not fail the verdict.
		p.VacuousReproduction = true
	} else {
		for _, plan := range cfg.Plans {
			p.Cells = append(p.Cells, Cell{
				Workload:  w.Name(),
				Mechanism: dataflow.CoordNone,
				Plan:      plan,
				Seeds:     cfg.Seeds,
				Stripped:  true,
			})
		}
	}
	return p, nil
}

// RunCell executes one cell's seeds in [from, to) (1-based, to exclusive)
// and returns one Outcome per seed in seed order. With a pool the seeded
// runs — each on its own simulator — execute concurrently; outcomes land
// at their seed's index, so the result is byte-identical to a sequential
// run. Cancelling ctx stops the workers at the next seed boundary.
func RunCell(ctx context.Context, w Workload, cell Cell, pool *sim.Pool, from, to int) ([]Outcome, error) {
	if from < 1 || to > cell.Seeds+1 || from > to {
		return nil, fmt.Errorf("chaos: %s under %s/%s: seed range [%d, %d) outside [1, %d]",
			cell.Workload, cell.Mechanism, cell.Plan.Name, from, to, cell.Seeds)
	}
	n := to - from
	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	if err := pool.MapContext(ctx, n, func(i int) {
		outcomes[i], errs[i] = w.Run(int64(from+i), cell.Plan, cell.Mechanism)
	}); err != nil {
		return nil, fmt.Errorf("chaos: %s under %s/%s: %w", w.Name(), cell.Mechanism, cell.Plan.Name, err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos: %s under %s/%s seed %d: %w", w.Name(), cell.Mechanism, cell.Plan.Name, from+i, err)
		}
	}
	return outcomes, nil
}

// FoldCell merges a cell's per-seed outcomes — outcomes[i] is seed i+1 —
// through the confluence oracle in seed order and renders the cell's Sweep
// verdict. The fold is pure and deterministic: however the outcomes were
// produced (sequentially or on a pool, in one range or several), equal
// outcomes yield a byte-identical Sweep.
func FoldCell(cell Cell, outcomes []Outcome) Sweep {
	oracle := NewOracle(cell.Confluent)
	for i, out := range outcomes {
		oracle.Observe(int64(i+1), out)
	}
	s := Sweep{
		Mechanism: cell.Mechanism.String(),
		Plan:      cell.Plan.Name,
		Seeds:     cell.Seeds,
		Observed:  oracle.Anomalies(),
	}
	if cell.Stripped {
		// Stripped sweeps document what went wrong, they are not held to
		// an allowance.
		s.Allowed = Anomalies{Run: true, Inst: true, Diverge: true}
		s.OK = true
	} else {
		s.Allowed = allowedAnomalies(cell.Mechanism)
		s.OK = s.Observed.Within(s.Allowed)
	}
	if d := oracle.Details(); len(d) > 0 {
		s.Detail = d[0]
	}
	return s
}

// Assemble rebuilds the Report from one Sweep per cell, in cell order.
func (p *CheckPlan) Assemble(sweeps []Sweep) (*Report, error) {
	if len(sweeps) != len(p.Cells) {
		return nil, fmt.Errorf("chaos: %s: %d sweeps for %d cells", p.Workload.Name(), len(sweeps), len(p.Cells))
	}
	rep := &Report{
		Workload:      p.Workload.Name(),
		Verdict:       p.Verdict,
		Deterministic: p.Deterministic,
		Strategies:    p.Strategies,
	}
	rep.DivergenceReproduced = p.VacuousReproduction
	for i, s := range sweeps {
		if p.Cells[i].Stripped {
			rep.Uncoordinated = append(rep.Uncoordinated, s)
			if s.Observed.Any() {
				rep.DivergenceReproduced = true
			}
		} else {
			rep.Coordinated = append(rep.Coordinated, s)
		}
	}
	rep.Holds = rep.DivergenceReproduced
	for _, s := range rep.Coordinated {
		if !s.OK {
			rep.Holds = false
		}
	}
	return rep, nil
}

// Check verifies the Blazes guarantee for one workload:
//
//  1. analyze the workload's dataflow and synthesize strategies;
//  2. if the verdict is deterministic and no strategy is required
//     (confluent), run the workload *without* coordination under every
//     fault plan and assert eventual-outcome invariance across schedules;
//  3. otherwise install each recommended mechanism the workload supports
//     and assert the runs are outcome-invariant within Figure 5's
//     allowance for that mechanism;
//  4. strip the coordination and assert that at least one fault plan
//     reproduces a detected divergence.
//
// Cancelling ctx aborts the check promptly: in-flight seeded runs finish,
// queued ones never start, and Check returns the context's error.
func Check(ctx context.Context, w Workload, cfg Config) (*Report, error) {
	return check(ctx, w, cfg, nil)
}

// CheckShrink is Check plus anomaly shrinking: every cell whose sweep
// observed an anomaly — in practice the stripped divergence-reproduction
// sweeps — is delta-debugged down to a 1-minimal replayable Trace. Traces
// are returned in cell order.
func CheckShrink(ctx context.Context, w Workload, cfg Config) (*Report, []*Trace, error) {
	var traces []*Trace
	rep, err := check(ctx, w, cfg, func(cell Cell, sweep Sweep, outcomes []Outcome) error {
		if !sweep.Observed.Any() {
			return nil
		}
		tr, err := ShrinkCell(ctx, w, cell, outcomes)
		if err != nil {
			return fmt.Errorf("chaos: shrink %s under %s/%s: %w", cell.Workload, cell.Mechanism, cell.Plan.Name, err)
		}
		traces = append(traces, tr)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, traces, nil
}

// check is the shared execution path: plan once, run and fold every cell,
// assemble. each, when set, sees every cell's verdict while its raw outcomes
// are still at hand (for shrinking).
func check(ctx context.Context, w Workload, cfg Config, each func(Cell, Sweep, []Outcome) error) (*Report, error) {
	plan, err := PlanCheck(w, cfg)
	if err != nil {
		return nil, err
	}
	pool := sim.NewPool(0)
	sweeps := make([]Sweep, len(plan.Cells))
	for i, cell := range plan.Cells {
		outcomes, err := RunCell(ctx, w, cell, pool, 1, cell.Seeds+1)
		if err != nil {
			return nil, err
		}
		sweeps[i] = FoldCell(cell, outcomes)
		if each != nil {
			if err := each(cell, sweeps[i], outcomes); err != nil {
				return nil, err
			}
		}
	}
	return plan.Assemble(sweeps)
}

// Suite returns the standard verification workloads, covering the Storm,
// Bloom, and synthetic substrates and every Figure 5 mechanism.
func Suite() []Workload {
	return []Workload{
		Wordcount(),
		ReplicatedReport(dataflow.THRESH),
		ReplicatedReport(dataflow.POOR),
		ReplicatedReport(dataflow.CAMPAIGN),
		AdNetwork(),
		SyntheticSet(),
		SyntheticChains(true),
		SyntheticChains(false),
	}
}

// LookupWorkload resolves a workload name to a fresh workload instance:
// the Suite workloads by their fixed names, plus generated topology
// workloads whose name encodes their configuration
// ("generated-<components>c-s<seed>"), so a trace replayer holding only a
// name reconstructs the exact system under test. A generated name resolves
// only in the one spelling Name renders, so a report never names a
// workload other than the one asked for.
func LookupWorkload(name string) (Workload, error) {
	for _, w := range Suite() {
		if w.Name() == name {
			return w, nil
		}
	}
	if rest, ok := strings.CutPrefix(name, "generated-"); ok {
		compStr, seedStr, found := strings.Cut(rest, "c-s")
		if found {
			components, err1 := strconv.Atoi(compStr)
			seed, err2 := strconv.ParseInt(seedStr, 10, 64)
			if err1 == nil && err2 == nil && components > 0 {
				if w := Generated(components, seed); w.Name() == name {
					return w, nil
				}
			}
		}
		return nil, fmt.Errorf("chaos: malformed generated workload name %q (want generated-<components>c-s<seed>)", name)
	}
	names := make([]string, 0, len(Suite()))
	for _, w := range Suite() {
		names = append(names, w.Name())
	}
	return nil, fmt.Errorf("chaos: unknown workload %q (workloads: %s, generated-<n>c-s<seed>)", name, strings.Join(names, ", "))
}

// Summary renders a one-paragraph human-readable account of the report.
func (r *Report) Summary() string {
	status := "HOLDS"
	if !r.Holds {
		status = "VIOLATED"
	}
	out := fmt.Sprintf("%s: verdict %s (deterministic=%v) — guarantee %s\n", r.Workload, r.Verdict, r.Deterministic, status)
	for _, st := range r.Strategies {
		out += fmt.Sprintf("  strategy: %s\n", st)
	}
	for _, s := range r.Coordinated {
		out += fmt.Sprintf("  coordinated %-22s plan %-10s seeds %-3d observed [%s] allowed [%s] ok=%v\n",
			s.Mechanism, s.Plan, s.Seeds, s.Observed, s.Allowed, s.OK)
		if s.Detail != "" && !s.OK {
			out += fmt.Sprintf("    detail: %s\n", s.Detail)
		}
	}
	for _, s := range r.Uncoordinated {
		out += fmt.Sprintf("  stripped    %-22s plan %-10s seeds %-3d observed [%s]\n",
			s.Mechanism, s.Plan, s.Seeds, s.Observed)
	}
	if len(r.Uncoordinated) > 0 {
		out += fmt.Sprintf("  divergence reproduced without coordination: %v\n", r.DivergenceReproduced)
	}
	return out
}
