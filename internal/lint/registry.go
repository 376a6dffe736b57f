package lint

import (
	"fmt"
	"strings"
)

// DeterministicPackages lists the packages bound by the determinism
// contract: their outputs (schedules, emissions, report sections, returned
// slices) must be byte-identical across runs, parallelism levels and
// replays, so iteration order and ambient state must never leak into them.
// maporder and nondet default to this scope.
var DeterministicPackages = []string{
	"blazes/internal/sim",
	"blazes/internal/storm",
	"blazes/internal/bloom",
	"blazes/internal/chaos",
	"blazes/internal/dataflow",
	"blazes/internal/coord",
	"blazes/internal/hist",
}

// CtxFlowPackages lists the packages holding the sweep/analyze entry points
// the PR 5 context convention covers: multi-minute work must be cancelable,
// so ctx is accepted first and threaded, never re-minted.
var CtxFlowPackages = []string{
	"blazes",
	"blazes/verify",
	"blazes/service",
	"blazes/internal/chaos",
	"blazes/internal/experiments",
	"blazes/internal/sim",
	"blazes/internal/dataflow",
}

// analyzers is the registry, in name order: adding an analyzer is
// implementing the pass in its own file (run function + default scope) and
// adding its row here. The driver runs All() and lists the analyzers from
// the same table, so no command-line code changes.
var analyzers = []Analyzer{
	{Name: "ctxflow", Scope: CtxFlowPackages, Run: runCtxFlow,
		Doc: "sweep/analyze entry points accept context.Context first and thread it"},
	{Name: "maporder", Scope: DeterministicPackages, Run: runMapOrder,
		Doc: "a map is read sorted (slices.Sorted(maps.Keys(m))) or collected into a map (maps.Collect/Insert/Copy/Clone)"},
	{Name: "nondet", Scope: DeterministicPackages, Run: runNonDet,
		Doc: "no wall-clock reads, global math/rand draws, env-conditioned behavior or multi-channel select in deterministic packages"},
}

// Names returns the registered analyzer names, sorted.
func Names() []string {
	out := make([]string, len(analyzers))
	for i, a := range analyzers {
		out[i] = a.Name
	}
	return out
}

// New builds the named analyzer with its default scope. Unknown names are
// an error spelled with the valid set so the message stays self-updating.
func New(name string) (*Analyzer, error) {
	for _, a := range analyzers {
		if a.Name == name {
			return &a, nil
		}
	}
	return nil, fmt.Errorf("lint: unknown analyzer %q (valid: %s)", name, strings.Join(Names(), ", "))
}

// All returns every registered analyzer with default scopes, in name order.
func All() []*Analyzer {
	out := make([]*Analyzer, len(analyzers))
	for i, a := range analyzers {
		out[i] = &a
	}
	return out
}
