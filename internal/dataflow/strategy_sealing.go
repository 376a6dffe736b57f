package dataflow

// The sealing family gates a component's order-sensitive paths on the
// seals of their rendezvousing inputs: per-partition barriers driven by
// producer punctuations and a unanimous vote. Its two members run the same
// protocol and differ in when a sealed partition's readers are released.
const (
	// StrategySealing is M3: reads wait until every partition has sealed.
	StrategySealing = "sealing"
	// StrategyPartitionSealing is M3p: each partition key seals and
	// releases on its own, so one slow partition does not hold back reads
	// against the others.
	StrategyPartitionSealing = "partition-sealing"
)

// The sealing family's planners, one per row of the mechanisms table.
var (
	sealingPlanner = sealingStrategy{
		mech:     CoordSealed,
		origin:   "order-sensitive paths are compatible with the seals on their rendezvousing inputs",
		consumer: "sealed inputs gate per-partition processing; install the punctuation/voting protocol",
	}
	partitionSealingPlanner = sealingStrategy{
		mech:     CoordPartitionSealed,
		origin:   "order-sensitive paths are compatible with the seals on their rendezvousing inputs; partitions release independently as they seal",
		consumer: "sealed inputs gate per-partition processing; partitions release independently as their seals arrive",
	}
)

type sealingStrategy struct {
	mech Coordination
	// origin and consumer are the reasons given where an anomaly
	// originates and where upstream seals are merely consumed.
	origin, consumer string
}

func (s sealingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	keys, ok := ctx.sealPlan()
	reason := s.origin
	if !ctx.Origin {
		reason = s.consumer
		if !ok {
			// Defensive: the analysis says seals protect this component, so
			// a plan must exist; fall back to reporting the consumed keys
			// directly from the steps.
			keys, ok = ctx.consumedSealKeys(), true
		}
	}
	if !ok {
		return Strategy{}, false
	}
	return Strategy{Component: ctx.Component.Name, Mechanism: s.mech, SealKeys: keys, Reason: reason}, true
}
