// Package strategy exposes the coordination-strategy registry behind the
// Blazes analyzer. Synthesis (blazes.Analyzer, blazes verify, the analysis
// service) resolves strategies by name through this registry rather than a
// hard-coded switch; every name accepted anywhere in the toolchain — the
// WithStrategy option, the -strategy flag, the Strategy fields of the
// service API — comes from the set reported here, so error messages and
// validation stay in lockstep with what is actually registered.
//
// A strategy plans one coordination mechanism for one component, and the
// two are one to one: sealing (M3), ordering (M2) and sequencing (M1) are
// Figure 5's mechanisms — the first two, in that order, the paper's default
// chain — and quorum-ordering, merge-rewrite and partition-sealing are
// registered extensions. New strategies register
// in internal/dataflow with RegisterStrategy and must pass the chaos
// conformance gate (the synthesized graph converges under fault injection,
// the stripped graph demonstrably diverges) before they ship.
//
// A strategy's plan for a component is a function of that component alone —
// its derivation, its configuration, its input streams and their labels. A
// session plans a component again only when one of those changed, so a
// strategy that consulted anything else would be served from a stale
// cache; and the strategies a session returns are shared from one result to
// the next, so they are read-only, seal keys and input lists included.
package strategy

import "blazes/internal/dataflow"

// Registered strategy names.
const (
	Sealing          = dataflow.StrategySealing
	Ordering         = dataflow.StrategyOrdering
	Sequencing       = dataflow.StrategySequencing
	QuorumOrdering   = dataflow.StrategyQuorumOrdering
	MergeRewrite     = dataflow.StrategyMergeRewrite
	PartitionSealing = dataflow.StrategyPartitionSealing
)

// Info describes one registered strategy.
type Info struct {
	// Name is the registry key, as accepted by blazes.WithStrategy, the
	// verify -strategy flag, and the service Strategy fields.
	Name string
	// Summary is a one-line description of the mechanism and when it
	// applies.
	Summary string
}

// Names returns every registered strategy name, sorted.
func Names() []string { return dataflow.StrategyNames() }

// Validate reports whether name is registered; the error lists the valid
// names. The empty name is valid and means "use the default chain".
func Validate(name string) error {
	if name == "" {
		return nil
	}
	_, err := dataflow.LookupStrategy(name)
	return err
}

// Catalog returns an Info for every registered strategy, in name order.
func Catalog() []Info {
	defs := dataflow.Strategies()
	infos := make([]Info, len(defs))
	for i, d := range defs {
		infos[i] = Info{Name: d.Name(), Summary: d.Summary()}
	}
	return infos
}
