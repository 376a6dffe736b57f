package dataflow

// StrategyQuorumOrdering names the quorum/vector-clock ordering strategy:
// a cheaper M1 alternative in which producers stamp messages with Lamport
// clocks and replicas deliver in (clock, producer, seq) order once the
// stability frontier passes — the total order is preordained by the
// stamps, so no per-message sequencer round trip is needed.
const StrategyQuorumOrdering = "quorum-ordering"

func init() { RegisterStrategy(quorumOrderingStrategy{}) }

type quorumOrderingStrategy struct{}

func (quorumOrderingStrategy) Name() string { return StrategyQuorumOrdering }

func (quorumOrderingStrategy) Summary() string {
	return "quorum ordering (M1q): producer Lamport clocks + stability frontiers preordain a total order — coordination cost is one heartbeat per quiescent interval, not one round trip per message"
}

func (quorumOrderingStrategy) Plan(ctx *StrategyContext) (Strategy, bool) {
	if !ctx.Origin {
		return Strategy{}, false
	}
	return Strategy{
		Component: ctx.Component.Name,
		Mechanism: CoordQuorumOrder,
		Inputs:    ctx.inputStreams(),
		Reason:    "producer clocks and stability frontiers preordain a total order without per-message sequencer round trips",
	}, true
}
