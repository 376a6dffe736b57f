package dataflow

import (
	"fmt"
	"slices"
)

// StrategyContext is everything a strategy's planner sees when planning
// coordination for one component: the finished analysis, the component in
// question, and why it was flagged (an anomaly originates here, or it
// consumes upstream seals).
type StrategyContext struct {
	Analysis  *Analysis
	Component *Component
	// Origin is true when reconciliation added an anomaly at this
	// component (the nondeterminism is born here); false when the
	// component consumes compatible seals and only needs the runtime
	// protocol installed.
	Origin bool

	index int32 // Component's position in the analysis's compiled structure
}

// StreamsInto returns the streams arriving at the component's named input
// interface, in declaration order, from the analysis's compiled index; it
// does not scan the graph. Their derived labels are
// ctx.Analysis.Label(stream.Name).
func (ctx *StrategyContext) StreamsInto(iface string) []*Stream {
	st := ctx.Analysis.st
	in := st.node(ctx.index, iface, false)
	if in < 0 {
		return nil
	}
	ids := st.into.at(in)
	out := make([]*Stream, len(ids))
	for i, id := range ids {
		out[i] = st.streams[id]
	}
	return out
}

// StrategyDef is a strategy's planner: the recipe a row of the mechanisms
// table holds beside the strategy's name and the mechanism every Strategy
// it plans installs. It inspects a flagged component and either produces
// a concrete Strategy or declines.
type StrategyDef interface {
	// Plan produces a Strategy for ctx.Component, or reports false when
	// the strategy does not apply (synthesis then falls back down the
	// default chain).
	//
	// A plan must be a function of the component alone: its derivation
	// (ctx.Analysis.Component), its configuration and annotations, and its
	// input streams with their derived labels (ctx.StreamsInto) — not of
	// another component's record, a stream elsewhere in the graph, or
	// anything outside the analysis. A session keeps each component's plan
	// until one of those changes ((*Incremental).Synthesize) and would
	// keep a plan that read further afield past the edit that outdated
	// it; TestSessionScriptDifferential runs every strategy against that
	// cache. The Strategy returned is shared between consecutive results:
	// like a report entry it is immutable once returned, its SealKeys map
	// and Inputs slice included.
	Plan(ctx *StrategyContext) (Strategy, bool)
}

// LookupStrategy resolves a strategy name to the mechanism it installs.
// The error lists the valid names, so boundary layers (CLI flags, service
// request validation, Analyzer options) can surface it verbatim.
func LookupStrategy(name string) (Coordination, error) {
	for c, m := range mechanisms {
		if m.planner != nil && m.strategy == name {
			return Coordination(c), nil
		}
	}
	return CoordNone, fmt.Errorf("unknown strategy %q (registered: %v)", name, StrategyNames())
}

// StrategyNames returns the strategy names in sorted order.
func StrategyNames() []string {
	var out []string
	for _, m := range mechanisms {
		if m.planner != nil {
			out = append(out, m.strategy)
		}
	}
	slices.Sort(out)
	return out
}

// Strategies returns the mechanisms a strategy installs, in strategy-name
// order — the conformance matrix iterates this, so every row of the table
// is chaos-checked by construction.
func Strategies() []Coordination {
	names := StrategyNames()
	out := make([]Coordination, len(names))
	for i, name := range names {
		out[i], _ = LookupStrategy(name)
	}
	return out
}

// CheckStrategies returns LookupStrategy's error for the first unknown
// name.
func CheckStrategies(names []string) error {
	for _, name := range names {
		if _, err := LookupStrategy(name); err != nil {
			return err
		}
	}
	return nil
}

// planningChain resolves the preferred names (unknown ones are skipped) to
// their planners and appends the fixed tail that reproduces the paper's
// repair preference: sealing when compatible seals exist, ordering
// otherwise.
func planningChain(prefer []string) []StrategyDef {
	chain := make([]StrategyDef, 0, len(prefer)+2)
	for _, name := range append(slices.Clip(prefer), StrategySealing, StrategyOrdering) {
		if c, err := LookupStrategy(name); err == nil {
			chain = append(chain, mechanisms[c].planner)
		}
	}
	return chain
}
