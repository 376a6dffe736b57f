package experiments

import (
	"fmt"
	"io"

	"blazes/internal/chaos"
	"blazes/internal/dataflow"
)

// This file makes Figure 5 empirically observable: the chaos harness's
// synthetic component — two producers, two replicas — is run under every
// combination of component property (confluent / convergent /
// order-sensitive) and delivery mechanism (none / M1 sequencing / M2
// dynamic ordering / M3 sealing), and the chaos oracle detects the three
// anomaly classes by comparing outputs across replicas (Inst), across runs
// (Run), and final states across replicas (Diverge).

// Property is the component property axis of Figure 5.
type Property int

// Component properties (P1, P2, and the unconstrained order-sensitive
// case).
const (
	Confluent Property = iota
	Convergent
	OrderSensitive
)

// String names the property.
func (p Property) String() string {
	switch p {
	case Confluent:
		return "confluent (P1)"
	case Convergent:
		return "convergent (P2)"
	default:
		return "order-sensitive"
	}
}

// fig5Rows and fig5Mechanisms are the two axes, in the paper's order.
var (
	fig5Rows = []struct {
		prop     Property
		workload *chaos.SyntheticWorkload
	}{
		{Confluent, chaos.SyntheticSet()},
		{Convergent, chaos.SyntheticRegister()},
		{OrderSensitive, chaos.SyntheticChains(true)},
	}
	fig5Mechanisms = []dataflow.Coordination{
		dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder, dataflow.CoordSealed,
	}
)

// Cell identifies one matrix cell.
type Cell struct {
	Prop Property
	Mech dataflow.Coordination
}

// Fig5Matrix runs every cell across the given seeds, on links with only
// their native jitter, and reports the anomalies observed. Confluent
// components are compared on their eventual output only (transient subsets
// are the benign Async behaviour, not an anomaly).
func Fig5Matrix(seeds int) map[Cell]chaos.Anomalies {
	out := map[Cell]chaos.Anomalies{}
	for _, row := range fig5Rows {
		for _, mech := range fig5Mechanisms {
			oracle := chaos.NewOracle(row.prop == Confluent)
			for seed := int64(1); seed <= int64(seeds); seed++ {
				outcome, err := row.workload.Run(seed, chaos.FaultPlan{Name: "baseline"}, mech)
				if err != nil {
					panic(err) // the synthetic component installs all four mechanisms
				}
				oracle.Observe(seed, outcome)
			}
			out[Cell{row.prop, mech}] = oracle.Anomalies()
		}
	}
	return out
}

// PrintFig5 renders the observed matrix next to Figure 5's predictions.
func PrintFig5(w io.Writer, m map[Cell]chaos.Anomalies) {
	fmt.Fprintln(w, "Figure 5: observed anomalies by component property × delivery mechanism")
	fmt.Fprintf(w, "%-18s %-22s %s\n", "property", "mechanism", "anomalies observed")
	for _, row := range fig5Rows {
		for _, mech := range fig5Mechanisms {
			fmt.Fprintf(w, "%-18s %-22s %s\n", row.prop, mech, m[Cell{row.prop, mech}])
		}
	}
}
