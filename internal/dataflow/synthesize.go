package dataflow

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Strategy is a synthesized coordination plan for one component (Section
// V-B): a seal-based protocol (per-partition barriers driven by producer
// punctuations and a unanimous vote), an ordering mechanism, or one of the
// extensions (quorum ordering, per-partition sealing — see the mechanisms
// table).
type Strategy struct {
	// Component names the component whose inputs are coordinated.
	Component string
	// Mechanism is the chosen delivery mechanism.
	Mechanism Coordination
	// SealKeys maps each gating input stream to the seal key on which its
	// partitions close (CoordSealed only).
	SealKeys map[string]fd.AttrSet
	// Inputs lists the input streams routed through the ordering service
	// (CoordSequenced / CoordDynamicOrder only).
	Inputs []string
	// Reason explains why this mechanism was selected.
	Reason string
}

// String summarizes the strategy.
func (s Strategy) String() string {
	switch s.Mechanism {
	case CoordSealed, CoordPartitionSealed:
		keys := slices.Sorted(maps.Keys(s.SealKeys))
		for i, stream := range keys {
			keys[i] = fmt.Sprintf("%s on (%s)", stream, s.SealKeys[stream])
		}
		// A stream name may hold a space: "a b on (k)" sorts before "a on (k)".
		slices.Sort(keys)
		style := "seal-based"
		if s.Mechanism == CoordPartitionSealed {
			style = "per-partition seal-based"
		}
		return fmt.Sprintf("%s: %s coordination — %s", s.Component, style, strings.Join(keys, "; "))
	case CoordSequenced, CoordDynamicOrder, CoordQuorumOrder:
		return fmt.Sprintf("%s: %s over inputs %s", s.Component, s.Mechanism, strings.Join(s.Inputs, ", "))
	default:
		return fmt.Sprintf("%s: no coordination required", s.Component)
	}
}

// SynthesisOptions tunes strategy selection.
type SynthesisOptions struct {
	// Prefer names strategies (rows of the mechanisms table) to try, in
	// order, for every flagged component before the default
	// sealing-then-ordering chain; where none applies synthesis falls back
	// to that chain. Unknown names are ignored here — boundary layers
	// (Analyzer options, CLI flags, service validation) reject them via
	// CheckStrategies before synthesis runs. The list arrives unchanged
	// from blazes.WithStrategy, verify.Options.Prefer and the -strategy
	// flag or "strategy" request field ("sealing,sequencing").
	Prefer []string
}

// Synthesize inspects an analysis and produces one strategy per component
// that needs coordination machinery:
//
//   - Components where an anomaly *originates* (an inference rule fired on
//     deterministic inputs and reconciliation added Run/Inst/Diverge) get a
//     sealing strategy when the derived labels of their rendezvousing
//     streams carry compatible seals, and an ordering strategy otherwise.
//   - Components that consume compatible seals (blocked per-partition
//     processing) get a CoordSealed strategy so the runtime installs the
//     punctuation/voting protocol, even though their outputs are already
//     deterministic.
//
// Components that merely propagate upstream nondeterminism produce no
// strategy: coordinating them cannot repair contents that already differ
// (fix the origin and re-analyze — see Repair).
//
// Selection dispatches through the mechanisms table: the preferred
// strategies (opts.Prefer) are tried in order, then the default
// sealing-then-ordering chain, and the first strategy whose Plan accepts
// the component wins.
func Synthesize(a *Analysis, opts SynthesisOptions) []Strategy {
	chain := planningChain(opts.Prefer)
	var out []Strategy
	for ca := range a.Components() {
		if st, ok := plan(ca, chain); ok {
			out = append(out, st)
		}
	}
	return out
}

// plan is synthesis for one component: the first strategy of the chain that
// accepts it, if it needs one at all. It reads the component's derivations
// and configuration and, through the strategies, its input streams — and
// nothing else, which is what lets the engine keep a plan until one of
// those changes (see StrategyDef.Plan).
func plan(ca ComponentAnalysis, chain []StrategyDef) (Strategy, bool) {
	comp := ca.Component
	if comp.Coordination != CoordNone {
		return Strategy{}, false // already coordinated
	}
	origin := originatesAnomaly(ca)
	if !origin && !consumesSeal(ca) {
		return Strategy{}, false
	}
	ctx := StrategyContext{Analysis: ca.a, Component: comp, Origin: origin, index: ca.index}
	for _, def := range chain {
		if st, ok := def.Plan(&ctx); ok {
			return st, true
		}
	}
	return Strategy{}, false
}

// cachedPlan is one component's plan as the engine keeps it.
type cachedPlan struct {
	Strategy
	ok bool
}

func (p cachedPlan) equal(q cachedPlan) bool {
	return p.ok == q.ok && p.Mechanism == q.Mechanism && p.Reason == q.Reason &&
		slices.Equal(p.Inputs, q.Inputs) && maps.EqualFunc(p.SealKeys, q.SealKeys, fd.AttrSet.Equal)
}

// replan marks component c's cached plan as out of date.
func (inc *Incremental) replan(c int32) {
	if inc.plans != nil {
		inc.stale.add(c)
	}
}

// Synthesize is Synthesize over the engine's analysis as the last completed
// Analyze left it, planning only the components whose plan can have
// changed since the previous call: those with a derivation that changed
// (whichever pass changed it, synthesized after or not) or an input stream
// that was re-annotated. A structure rebuild or another Prefer list plans
// everything again. When no plan changed the result is the very slice
// returned last time; like report entries, the strategies and what they
// hold (SealKeys, Inputs) are shared between results and must not be
// modified.
func (inc *Incremental) Synthesize(opts SynthesisOptions) []Strategy {
	if inc.plans == nil || !slices.Equal(inc.planPrefer, opts.Prefer) {
		inc.plans, inc.planPrefer, inc.strategies = make([]cachedPlan, len(inc.st.comps)), slices.Clone(opts.Prefer), nil
		for c := range inc.plans {
			inc.stale.add(int32(c))
		}
	}
	chain := planningChain(opts.Prefer)
	changed := false
	for _, c := range inc.stale.ids {
		var p cachedPlan
		p.Strategy, p.ok = plan(inc.a.ComponentAt(int(c)), chain)
		if !p.equal(inc.plans[c]) {
			inc.plans[c], changed = p, true
		}
	}
	inc.planned = len(inc.stale.ids)
	inc.stale.clear()
	if changed {
		out := make([]Strategy, 0, len(inc.strategies)+1)
		for i := range inc.plans {
			if p := &inc.plans[i]; p.ok {
				out = append(out, p.Strategy)
			}
		}
		inc.strategies = out
	}
	return inc.strategies
}

// originatesAnomaly reports whether reconciliation added an anomaly label
// (Run or worse) at this component *and* some inference rule fired on a
// deterministic input — i.e. the nondeterminism is born here rather than
// inherited.
func originatesAnomaly(ca ComponentAnalysis) bool {
	added := false
	for out := range ca.Outputs() {
		for _, l := range out.Reconciliation.Added {
			if l.Severity() >= core.Run.Severity() {
				added = true
			}
		}
	}
	if !added {
		return false
	}
	for st := range ca.Steps() {
		switch st.Rule {
		case core.Rule1, core.Rule2, core.Rule4, core.Rule1Seal:
			if st.In.Kind == core.LAsync || st.In.Kind == core.LSeal {
				return true
			}
		}
	}
	return false
}

// consumesSeal reports whether the component blocks on sealed partitions:
// an order-sensitive path consumed a compatible seal, or a protected NDRead
// was reconciled to Async.
func consumesSeal(ca ComponentAnalysis) bool {
	for st := range ca.Steps() {
		if st.In.Kind == core.LSeal && st.Ann.OrderSensitive() && st.Rule == core.RuleP {
			return true
		}
	}
	for out := range ca.Outputs() {
		rec := out.Reconciliation
		hasND := slices.ContainsFunc(rec.Input, func(l core.Label) bool { return l.Kind == core.LNDRead })
		if hasND && slices.ContainsFunc(rec.Added, core.Async.Equal) {
			return true // protected NDRead
		}
	}
	return false
}

// sealPlan checks M3 applicability using the *derived* labels of the input
// streams (so seals that propagated through upstream confluent components
// count). For every order-sensitive path:
//
//   - a write path's own input streams must carry compatible Seal labels
//     (its state partitions must stop changing);
//   - a read path rendezvouses with the component's state: the streams
//     feeding the component's write paths must carry compatible Seal labels
//     (the read blocks until the partition it touches is complete). A read
//     path with no write siblings reads its own input, which must then be
//     sealed itself.
//
// It returns the per-stream seal keys gating the component.
func (ctx *StrategyContext) sealPlan() (map[string]fd.AttrSet, bool) {
	a, st, comp := ctx.Analysis, ctx.Analysis.st, ctx.Component
	first := st.pathOff[ctx.index]

	// The input interfaces of the write paths, in name order (node ids
	// ascend with the interface name).
	var writeIns []int32
	for k, p := range comp.Paths {
		if p.Ann.Write {
			writeIns = append(writeIns, st.pathIn[first+int32(k)])
		}
	}
	slices.Sort(writeIns)
	writeIns = slices.Compact(writeIns)

	keys := map[string]fd.AttrSet{}
	checkIface := func(in int32, gate core.Annotation) bool {
		streams := st.into.at(in)
		for _, s := range streams {
			l := a.labels[s]
			if l.Kind != core.LSeal || !gate.SealCompatible(l.Key, comp.Deps) {
				return false
			}
			keys[st.streams[s].Name] = l.Key
		}
		return len(streams) > 0
	}

	found := false
	for k, p := range comp.Paths {
		if !p.Ann.OrderSensitive() {
			continue
		}
		found = true
		if p.Ann.GateStar || p.Ann.Gate.IsEmpty() {
			return nil, false
		}
		// A write path gates on its own input, a read path on the
		// state-building inputs.
		rendezvous := writeIns
		if p.Ann.Write || len(writeIns) == 0 {
			rendezvous = []int32{st.pathIn[first+int32(k)]}
		}
		for _, in := range rendezvous {
			if !checkIface(in, p.Ann) {
				return nil, false
			}
		}
	}
	if !found || len(keys) == 0 {
		return nil, false
	}
	return keys, true
}

// consumedSealKeys reports the seal keys observed on inputs to
// order-sensitive paths (fallback reporting).
func (ctx *StrategyContext) consumedSealKeys() map[string]fd.AttrSet {
	a, st := ctx.Analysis, ctx.Analysis.st
	keys := map[string]fd.AttrSet{}
	for v := st.compStart[ctx.index]; v < st.compStart[ctx.index+1]; v++ {
		for _, s := range st.into.at(v) {
			if l := a.labels[s]; l.Kind == core.LSeal {
				keys[st.streams[s].Name] = l.Key
			}
		}
	}
	return keys
}

// inputStreams names every stream feeding the component, sorted.
func (ctx *StrategyContext) inputStreams() []string {
	st := ctx.Analysis.st
	var out []string
	for v := st.compStart[ctx.index]; v < st.compStart[ctx.index+1]; v++ {
		for _, s := range st.into.at(v) {
			out = append(out, st.streams[s].Name)
		}
	}
	sort.Strings(out)
	return out
}

// Apply returns a copy of g with the strategies applied (components marked
// with their coordination mechanism). Strategies synthesized against a
// collapsed graph may name supernodes ("scc+A+B"); those are applied to
// every member component of the original graph.
func Apply(g *Graph, strategies []Strategy) *Graph {
	ng := g.Clone()
	for _, st := range strategies {
		if comp := ng.Lookup(st.Component); comp != nil {
			comp.Coordination = st.Mechanism
			continue
		}
		if rest, ok := strings.CutPrefix(st.Component, "scc+"); ok {
			for _, member := range strings.Split(rest, "+") {
				if comp := ng.Lookup(member); comp != nil {
					comp.Coordination = st.Mechanism
				}
			}
		}
	}
	return ng
}

// Repair analyzes g, synthesizes strategies, applies them, and re-analyzes,
// iterating until no further strategies are produced. It returns the final
// analysis and all strategies applied, in application order.
func Repair(g *Graph, opts SynthesisOptions) (*Analysis, []Strategy, error) {
	var all []Strategy
	cur := g
	for i := 0; i <= len(g.Components()); i++ {
		a, err := Analyze(cur)
		if err != nil {
			return nil, nil, err
		}
		st := Synthesize(a, opts)
		if len(st) == 0 {
			return a, all, nil
		}
		all = append(all, st...)
		cur = Apply(cur, st)
	}
	a, err := Analyze(cur)
	return a, all, err
}
