package bloom

import (
	"fmt"
	"maps"
	"slices"
)

// ThresholdExpr is a *monotone* counting threshold: it emits each group key
// once the group's cardinality reaches AtLeast. Unlike a general aggregation
// it never retracts — the count only grows, and crossing a fixed threshold
// is insensitive to arrival order. This models the lattice-based monotone
// aggregation of Conway et al., "Logic and Lattices for Distributed
// Programming" (cited by the paper to explain why THRESH is confluent), and
// is what lets the white-box analyzer derive CR for the THRESH query
// instead of a conservative OR.
type ThresholdExpr struct {
	Input   Expr
	Keys    []string
	AtLeast int64
}

// MonotoneCountAtLeast builds the monotone threshold operator.
func MonotoneCountAtLeast(input Expr, keys []string, atLeast int64) *ThresholdExpr {
	return &ThresholdExpr{Input: input, Keys: keys, AtLeast: atLeast}
}

// Schema implements Expr: the key columns.
func (e *ThresholdExpr) Schema(m *Module) (Schema, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	out := make(Schema, 0, len(e.Keys))
	for _, k := range e.Keys {
		if !in.Contains(k) {
			return nil, fmt.Errorf("bloom: threshold key %q missing from %v", k, in)
		}
		out = append(out, k)
	}
	if err := checkNoDupCols(out, "threshold", ""); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *ThresholdExpr) eval(m *Module, st stateReader) ([]Row, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	rows, err := e.Input.eval(m, st)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(e.Keys))
	for i, k := range e.Keys {
		keyIdx[i] = in.IndexOf(k)
	}
	counts := map[string]int64{}
	repr := map[string]Row{}
	for _, r := range rows {
		k := joinKey(r, keyIdx)
		counts[k]++
		if _, ok := repr[k]; !ok {
			nr := make(Row, len(keyIdx))
			for i, j := range keyIdx {
				nr[i] = r[j]
			}
			repr[k] = nr
		}
	}
	// k is repr[k].key(), so key order is SortRows order.
	var out []Row
	for _, k := range slices.Sorted(maps.Keys(counts)) {
		if counts[k] >= e.AtLeast {
			out = append(out, repr[k])
		}
	}
	return out, nil
}
