package dataflow

// The ordering family imposes one total order on every input of a
// component where an anomaly originates. Its members differ only in who
// decides that order (Figure 5), so each is a row of the same strategy.
const (
	// StrategyOrdering is M2: a dynamic ordering service (Paxos,
	// Zookeeper) decides the order per run.
	StrategyOrdering = "ordering"
	// StrategySequencing is M1: a global sequencer preordains the order
	// (e.g. Storm transactional batch ids), which also makes it the same
	// across runs — what replay-based fault tolerance needs.
	StrategySequencing = "sequencing"
	// StrategyQuorumOrdering is M1q, a cheaper M1: producers stamp
	// messages with Lamport clocks and replicas deliver in (clock,
	// producer, seq) order once the stability frontier passes, so no
	// per-message sequencer round trip is needed.
	StrategyQuorumOrdering = "quorum-ordering"
)

// The ordering family's planners, one per row of the mechanisms table.
var (
	orderingPlanner = orderingStrategy{
		mech:   CoordDynamicOrder,
		reason: "no compatible seal available; replicas must process state-modifying events in a single order",
	}
	sequencingPlanner = orderingStrategy{
		mech:   CoordSequenced,
		reason: "no compatible seal available; replay-based fault tolerance requires a preordained total order",
	}
	quorumOrderingPlanner = orderingStrategy{
		mech:   CoordQuorumOrder,
		reason: "producer clocks and stability frontiers preordain a total order without per-message sequencer round trips",
	}
)

type orderingStrategy struct {
	mech   Coordination
	reason string
}

func (s orderingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	if !ctx.Origin {
		// Seal consumers need the punctuation protocol installed, not an
		// order imposed; let the chain fall through to sealing.
		return Strategy{}, false
	}
	return Strategy{
		Component: ctx.Component.Name,
		Mechanism: s.mech,
		Inputs:    ctx.inputStreams(),
		Reason:    s.reason,
	}, true
}
