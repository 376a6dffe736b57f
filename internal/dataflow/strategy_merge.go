package dataflow

import "fmt"

// StrategyMergeRewrite names the CRDT-style merge rewrite: a component
// that declares a commutative, associative, idempotent merge
// (Component.Merge) has its order-sensitive folds replaced by that merge,
// making it confluent by construction. The derived labels change; no
// runtime protocol is installed.
const StrategyMergeRewrite = "merge-rewrite"

type mergeRewriteStrategy struct{}

func (mergeRewriteStrategy) Summary() string {
	return "CRDT-style merge rewrite: replace the order-sensitive fold with a declared commutative merge — zero runtime coordination, but requires a Merge declaration and changes the component's semantics to the merge's"
}

func (mergeRewriteStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	comp := ctx.Component
	if !ctx.Origin || comp.Merge == "" {
		return Strategy{}, false
	}
	return Strategy{
		Component: comp.Name,
		Mechanism: CoordMergeRewrite,
		Reason:    fmt.Sprintf("declared commutative merge %q replaces the order-sensitive fold, making the component confluent", comp.Merge),
	}, true
}
