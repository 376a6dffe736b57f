package dataflow

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
)

// StrategyContext is everything a registered strategy sees when planning
// coordination for one component: the finished analysis, the collapsed
// graph the analysis ran over, the component in question, and why it was
// flagged (an anomaly originates here, or it consumes upstream seals).
type StrategyContext struct {
	Analysis  *Analysis
	Graph     *Graph // the collapsed graph (supernodes, not raw components)
	Component *Component
	// Origin is true when reconciliation added an anomaly at this
	// component (the nondeterminism is born here); false when the
	// component consumes compatible seals and only needs the runtime
	// protocol installed.
	Origin bool

	index int32 // Component's position in the analysis's compiled structure
}

// StreamsInto returns the streams arriving at the component's named input
// interface, in declaration order, from the analysis's compiled index —
// unlike Graph.StreamsInto it does not scan the graph. Their derived
// labels are ctx.Analysis.Label(stream.Name).
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

// StrategyDef is a registered coordination strategy: a named recipe that
// inspects a flagged component and either produces a concrete Strategy or
// declines. Implement the interface, then call RegisterStrategy — the
// name becomes valid everywhere strategies are referenced (Analyzer
// options, `blazes verify -strategy`, the service API), and the chaos
// conformance matrix picks it up by iterating the registry.
type StrategyDef interface {
	// Name is the registry key ("sealing", "quorum-ordering", ...).
	Name() string
	// Summary is a one-line description for catalogs and docs.
	Summary() string
	// Mechanism is the delivery mechanism every Strategy this definition
	// plans installs; the conformance matrix holds it to that.
	Mechanism() Coordination
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
	// it; TestSessionScriptDifferential runs every registered strategy
	// against that cache. The Strategy returned is shared between
	// consecutive results: like a report entry it is immutable once
	// returned, its SealKeys map and Inputs slice included.
	Plan(ctx *StrategyContext) (Strategy, bool)
}

type registeredStrategy struct {
	def  StrategyDef
	site string
}

var (
	strategyMu  sync.RWMutex
	strategyReg = map[string]registeredStrategy{}
)

// RegisterStrategy adds a strategy to the registry. It is meant to be
// called from package init; registering two strategies under one name is
// a programming error and panics with both registration sites named.
func RegisterStrategy(def StrategyDef) {
	site := "unknown"
	if _, file, line, ok := runtime.Caller(1); ok {
		site = fmt.Sprintf("%s:%d", file, line)
	}
	strategyMu.Lock()
	defer strategyMu.Unlock()
	name := def.Name()
	if prev, ok := strategyReg[name]; ok {
		panic(fmt.Sprintf("dataflow: duplicate strategy %q registered at %s (previously registered at %s)",
			name, site, prev.site))
	}
	strategyReg[name] = registeredStrategy{def: def, site: site}
}

// LookupStrategy resolves a registered strategy by name. The error lists
// the valid names, so boundary layers (CLI flags, service request
// validation, Analyzer options) can surface it verbatim.
func LookupStrategy(name string) (StrategyDef, error) {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	if r, ok := strategyReg[name]; ok {
		return r.def, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (registered: %v)", name, strategyNamesLocked())
}

// StrategyNames returns the registered strategy names in sorted order.
func StrategyNames() []string {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	return strategyNamesLocked()
}

// strategyNamesLocked requires strategyMu held (read or write).
func strategyNamesLocked() []string {
	out := make([]string, 0, len(strategyReg))
	for name := range strategyReg {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Strategies returns the registered strategy definitions in name order —
// the conformance matrix iterates this so every future registration is
// chaos-checked by construction.
func Strategies() []StrategyDef {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	out := make([]StrategyDef, 0, len(strategyReg))
	for _, name := range strategyNamesLocked() {
		out = append(out, strategyReg[name].def)
	}
	return out
}

// StrategyPreference is the one place the public (strategy, sequencing)
// pair — the two blazes Analyzer options, the -strategy and -sequencing
// flags, the "strategy" and "sequencing" request fields — becomes the
// preference list of SynthesisOptions.Prefer. The named strategy, if any,
// goes first. Sequencing substitutes M1 for M2 wherever the whole chain
// [strategy, sealing, ordering] says ordering, rather than preferring M1
// outright: sealing stays ahead of it, so a sealable component still gets
// its seal.
func StrategyPreference(strategy string, sequencing bool) []string {
	var prefer []string
	if strategy != "" {
		prefer = append(prefer, strategy)
	}
	if sequencing {
		prefer = append(prefer, StrategySealing, StrategyOrdering)
		for i, name := range prefer {
			if name == StrategyOrdering {
				prefer[i] = StrategySequencing
			}
		}
	}
	return prefer
}

// CheckStrategies returns LookupStrategy's error for the first name that
// is not registered.
func CheckStrategies(names []string) error {
	for _, name := range names {
		if _, err := LookupStrategy(name); err != nil {
			return err
		}
	}
	return nil
}

// planningChain resolves the preferred names (unregistered ones are
// skipped) and appends the fixed tail that reproduces the paper's repair
// preference: sealing when compatible seals exist, ordering otherwise.
func planningChain(prefer []string) []StrategyDef {
	strategyMu.RLock()
	defer strategyMu.RUnlock()
	chain := make([]StrategyDef, 0, len(prefer)+2)
	for _, name := range append(slices.Clip(prefer), StrategySealing, StrategyOrdering) {
		if r, ok := strategyReg[name]; ok {
			chain = append(chain, r.def)
		}
	}
	return chain
}
