package verify

// Distributed verification: the public surface the sweep coordinator
// (service), the worker processes (blazes sweep-worker), and the trace
// tooling (blazes verify -shrink / -replay) build on. A Check decomposes
// into an ordered list of cells (PlanCheck); each cell's seed range can be
// run anywhere (RunCell), merged in seed order (FoldCell), and the report
// reassembled (CheckPlan.Assemble) — byte-identical to a single-process
// Check of the same configuration, because both paths share the same
// fold. SweepState is the coordinator's resumable ledger; ShrinkCell and
// Replay close the loop from an anomalous cell to a 1-minimal replayable
// trace artifact.

import (
	"context"
	"encoding/json"

	"blazes/internal/chaos"
	"blazes/internal/sim"
)

// Cell identifies one independently runnable sweep cell: a (workload,
// mechanism, fault plan) configuration and its seed range.
type Cell = chaos.Cell

// CheckPlan is the execution plan of one Check: the analyzer's verdict
// plus the ordered cells to sweep.
type CheckPlan = chaos.CheckPlan

// Outcome is the observable result of one seeded run.
type Outcome = chaos.Outcome

// SweepState is the coordinator's resumable ledger for one distributed
// check: claimable seed-range batches, partial outcomes, lease expiry,
// first-report-wins dedup.
type SweepState = chaos.SweepState

// Batch is one claimable unit of work: a contiguous seed range of a cell.
type Batch = chaos.Batch

// Trace is a self-contained replayable counterexample produced by
// shrinking an anomalous cell.
type Trace = chaos.Trace

// ReplayResult is the verdict of re-executing a Trace.
type ReplayResult = chaos.ReplayResult

// TraceVersion identifies the replayable-trace artifact schema.
const TraceVersion = chaos.TraceVersion

// PlanCheck analyzes the workload and lays out the sweep cells a Check
// would run, without running any of them — the coordinator's first step.
func PlanCheck(w Workload, opts Options) (*CheckPlan, error) {
	return chaos.PlanCheck(w, opts.config())
}

// NewSweepState lays the cells out into batches of at most batchSize seeds
// (0 selects 256). claimTTL is the claim lease duration in the caller's
// clock unit (0 = leases never expire).
//
//lint:allow ctxflow constructor of an in-memory ledger; it runs no schedules, so there is nothing to cancel
func NewSweepState(cells []Cell, batchSize int, claimTTL int64) *SweepState {
	return chaos.NewSweepState(cells, batchSize, claimTTL)
}

// RunCell executes one cell's seeds in [from, to) (1-based, to exclusive)
// with the given parallelism (0/1 sequential, -1 one worker per CPU) and
// returns one Outcome per seed in seed order.
func RunCell(ctx context.Context, w Workload, cell Cell, parallelism int, from, to int) ([]Outcome, error) {
	return chaos.RunCell(ctx, w, cell, sim.PoolFor(parallelism), from, to)
}

// FoldCell merges a cell's per-seed outcomes (outcomes[i] = seed i+1) in
// seed order into the cell's Sweep verdict. Pure and deterministic: equal
// outcomes yield a byte-identical Sweep wherever they were produced.
func FoldCell(cell Cell, outcomes []Outcome) Sweep { return chaos.FoldCell(cell, outcomes) }

// CheckShrink is CheckContext plus anomaly shrinking: every cell whose
// sweep observed an anomaly is delta-debugged to a 1-minimal replayable
// Trace. Traces are returned in cell order.
func CheckShrink(ctx context.Context, w Workload, opts Options) (*Report, []*Trace, error) {
	return chaos.CheckShrink(ctx, w, opts.config())
}

// ShrinkCell delta-debugs an anomalous cell to a 1-minimal replayable
// trace; outcomes are the cell's recorded per-seed outcomes (nil re-runs
// the cell first).
func ShrinkCell(ctx context.Context, w Workload, cell Cell, outcomes []Outcome) (*Trace, error) {
	return chaos.ShrinkCell(ctx, w, cell, outcomes)
}

// Reshrink re-runs delta debugging over an existing trace's recorded event
// set (no sweep) and returns a fresh 1-minimal trace with the same
// identity; it errors if the recorded classification no longer reproduces.
func Reshrink(ctx context.Context, tr *Trace) (*Trace, error) {
	return chaos.ReshrinkTrace(ctx, tr)
}

// Replay re-executes a trace and checks it reproduces its recorded
// Run/Inst/Diverge classification.
func Replay(ctx context.Context, tr *Trace) (*ReplayResult, error) { return chaos.Replay(ctx, tr) }

// MarshalReplay renders a replay verdict as indented JSON.
func MarshalReplay(res *ReplayResult) ([]byte, error) {
	return json.MarshalIndent(res, "", "  ")
}

// DecodeTrace parses a trace artifact and validates its schema version.
func DecodeTrace(data []byte) (*Trace, error) { return chaos.DecodeTrace(data) }

// LookupWorkload resolves a workload name — the Workloads() suite by their
// fixed names, plus generated topologies ("generated-<n>c-s<seed>") — to a
// fresh instance, so a process holding only a name reconstructs the exact
// system under test.
func LookupWorkload(name string) (Workload, error) { return chaos.LookupWorkload(name) }

// Generated adapts the topogen-generated topology for the given size and
// seed to the harness; its name round-trips through LookupWorkload.
func Generated(components int, seed int64) Workload { return chaos.Generated(components, seed) }
