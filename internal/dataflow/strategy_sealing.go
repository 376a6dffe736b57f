package dataflow

// StrategySealing names the seal-based strategy (M3): per-partition
// barriers driven by producer punctuations and a unanimous vote.
const StrategySealing = "sealing"

func init() { RegisterStrategy(sealingStrategy{}) }

type sealingStrategy struct{}

func (sealingStrategy) Name() string { return StrategySealing }

func (sealingStrategy) Summary() string {
	return "seal-based barriers (M3): buffer each partition until every producer seals it — no global coordination, cost proportional to partition count"
}

func (sealingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	comp := ctx.Component
	if ctx.Origin {
		keys, ok := ctx.sealPlan()
		if !ok {
			return Strategy{}, false
		}
		return Strategy{
			Component: comp.Name,
			Mechanism: CoordSealed,
			SealKeys:  keys,
			Reason:    "order-sensitive paths are compatible with the seals on their rendezvousing inputs",
		}, true
	}
	keys, ok := ctx.sealPlan()
	if !ok {
		// Defensive: the analysis says seals protect this component, so a
		// plan must exist; fall back to reporting the consumed keys
		// directly from the steps.
		keys = ctx.consumedSealKeys()
	}
	return Strategy{
		Component: comp.Name,
		Mechanism: CoordSealed,
		SealKeys:  keys,
		Reason:    "sealed inputs gate per-partition processing; install the punctuation/voting protocol",
	}, true
}
