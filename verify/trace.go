package verify

// Replayable traces: the public surface of blazes verify -shrink, -replay
// and -reshrink. CheckShrink delta-debugs every anomalous cell of a Check
// to a 1-minimal Trace; Replay re-executes one and Reshrink re-minimizes
// it. LookupWorkload rebuilds the system under test from the name a trace
// records.

import (
	"context"
	"encoding/json"

	"blazes/internal/chaos"
)

// Trace is a self-contained replayable counterexample produced by
// shrinking an anomalous cell.
type Trace = chaos.Trace

// ReplayResult is the verdict of re-executing a Trace.
type ReplayResult = chaos.ReplayResult

// TraceVersion identifies the replayable-trace artifact schema.
const TraceVersion = chaos.TraceVersion

// CheckShrink is CheckContext plus anomaly shrinking: every cell whose
// sweep observed an anomaly is delta-debugged to a 1-minimal replayable
// Trace. Traces are returned in cell order.
func CheckShrink(ctx context.Context, w Workload, opts Options) (*Report, []*Trace, error) {
	return chaos.CheckShrink(ctx, w, opts.config())
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
