package dataflow

// StrategyPartitionSealing names the per-partition sealing strategy
// (M3p): the same punctuation/voting protocol as sealing, but each
// partition key seals and releases independently, so one slow partition
// does not hold back reads against the others.
const StrategyPartitionSealing = "partition-sealing"

func init() { RegisterStrategy(partitionSealingStrategy{}) }

type partitionSealingStrategy struct{}

func (partitionSealingStrategy) Name() string { return StrategyPartitionSealing }

func (partitionSealingStrategy) Summary() string {
	return "per-partition sealing (M3p): partitions seal and release independently — same protocol cost as sealing, but a straggler partition delays only its own reads"
}

func (partitionSealingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	comp := ctx.Component
	if ctx.Origin {
		keys, ok := ctx.sealPlan()
		if !ok {
			return Strategy{}, false
		}
		return Strategy{
			Component: comp.Name,
			Mechanism: CoordPartitionSealed,
			SealKeys:  keys,
			Reason:    "order-sensitive paths are compatible with the seals on their rendezvousing inputs; partitions release independently as they seal",
		}, true
	}
	keys, ok := ctx.sealPlan()
	if !ok {
		keys = ctx.consumedSealKeys()
	}
	return Strategy{
		Component: comp.Name,
		Mechanism: CoordPartitionSealed,
		SealKeys:  keys,
		Reason:    "sealed inputs gate per-partition processing; partitions release independently as their seals arrive",
	}, true
}
