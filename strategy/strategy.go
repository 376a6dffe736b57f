// Package strategy names the coordination strategies behind the Blazes
// analyzer. Synthesis (blazes.Analyzer, blazes verify, the analysis
// service) resolves strategies by name rather than through a hard-coded
// switch; every name accepted anywhere in the toolchain — the WithStrategy
// option, the -strategy flag, the strategy fields of the service API — is
// one Names returns, so error messages and validation stay in lockstep
// with what actually exists.
//
// A strategy plans one coordination mechanism for one component, and the
// two are one to one: each is a row of one table in internal/dataflow.
// Sealing (M3), ordering (M2) and sequencing (M1) are Figure 5's
// mechanisms — the first two, in that order, the paper's default chain —
// and quorum-ordering and partition-sealing are extensions.
// Every row must pass the chaos conformance gate (the synthesized graph
// converges under fault injection, the stripped graph demonstrably
// diverges) before it ships.
//
// A preference is a list of names, tried in order before the default
// chain. On the command line and the wire it is one comma-separated string
// ("sealing,sequencing": seal where seals allow, otherwise M1 where the
// default would say M2 ordering); Parse turns it into the list.
//
// A strategy's plan for a component is a function of that component alone —
// its derivation, its configuration, its input streams and their labels. A
// session plans a component again only when one of those changed, so a
// strategy that consulted anything else would be served from a stale
// cache; and the strategies a session returns are shared from one result to
// the next, so they are read-only, seal keys and input lists included.
package strategy

import (
	"strings"

	"blazes/internal/dataflow"
)

// Strategy names.
const (
	Sealing          = dataflow.StrategySealing
	Ordering         = dataflow.StrategyOrdering
	Sequencing       = dataflow.StrategySequencing
	QuorumOrdering   = dataflow.StrategyQuorumOrdering
	PartitionSealing = dataflow.StrategyPartitionSealing
)

// Names returns every strategy name, sorted.
func Names() []string { return dataflow.StrategyNames() }

// Parse splits a comma-separated preference list ("sealing,sequencing")
// into its names and validates each; the error names the first unknown one
// and lists the valid names. The empty string is the empty list: the
// default chain.
func Parse(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	names := strings.Split(list, ",")
	if err := dataflow.CheckStrategies(names); err != nil {
		return nil, err
	}
	return names, nil
}
