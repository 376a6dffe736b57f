package dataflow

// StrategyOrdering names the ordering strategy: M2 dynamic ordering by
// default, M1 sequencing under PreferSequencing (Figure 5).
const StrategyOrdering = "ordering"

func init() { RegisterStrategy(orderingStrategy{}) }

type orderingStrategy struct{}

func (orderingStrategy) Name() string { return StrategyOrdering }

func (orderingStrategy) Summary() string {
	return "total order over inputs: M2 dynamic ordering service by default, M1 global sequencer under PreferSequencing — one coordination round trip per message"
}

func (orderingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	if !ctx.Origin {
		// Seal consumers need the punctuation protocol installed, not an
		// order imposed; let the chain fall through to sealing.
		return Strategy{}, false
	}
	mech, reason := CoordDynamicOrder,
		"no compatible seal available; replicas must process state-modifying events in a single order"
	if ctx.PreferSequencing {
		mech, reason = CoordSequenced,
			"no compatible seal available; replay-based fault tolerance requires a preordained total order"
	}
	return Strategy{
		Component: ctx.Component.Name,
		Mechanism: mech,
		Inputs:    ctx.inputStreams(),
		Reason:    reason,
	}, true
}
