package bloom

import "fmt"

// signedRead is one collection scanned by a rule body, with the polarity of
// its context: negative means the scan sits under a nonmonotonic operator
// (the right side of an antijoin, or any aggregation input), so stratified
// evaluation must fully compute it before the reading rule runs.
type signedRead struct {
	name     string
	negative bool
}

// signedReads walks the expression tree collecting scans with polarity.
func signedReads(e Expr, neg bool) []signedRead {
	switch x := e.(type) {
	case *ScanExpr:
		return []signedRead{{name: x.Name, negative: neg}}
	case *ProjectExpr:
		return signedReads(x.Input, neg)
	case *SelectExpr:
		return signedReads(x.Input, neg)
	case *JoinExpr:
		return append(signedReads(x.Left, neg), signedReads(x.Right, neg)...)
	case *AntiJoinExpr:
		return append(signedReads(x.Left, neg), signedReads(x.Right, true)...)
	case *GroupByExpr:
		// Aggregation is nonmonotonic in its input: new rows change
		// aggregate values.
		return signedReads(x.Input, true)
	case *ThresholdExpr:
		// Monotone threshold: output only grows with input; positive.
		return signedReads(x.Input, neg)
	default:
		return nil
	}
}

// reads lists the collections an expression scans, in scan order.
func reads(e Expr) []string {
	srs := signedReads(e, false)
	names := make([]string, len(srs))
	for i, sr := range srs {
		names[i] = sr.name
	}
	return names
}

// stratify assigns each collection a stratum such that positive
// dependencies stay within a stratum and negative dependencies strictly
// increase it, returning the assignment and the highest stratum in use.
// Programs with a nonmonotonic dependency cycle are rejected (they have no
// stratified model).
func stratify(m *Module) (map[string]int, int, error) {
	strata := map[string]int{}
	for _, c := range m.order {
		strata[c] = 0
	}
	n := len(m.order)
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for _, r := range m.rules {
			if r.Op != Instant {
				// Deferred/async rules break cycles across timesteps;
				// they impose no intra-tick ordering.
				continue
			}
			for _, sr := range signedReads(r.Body, false) {
				need := strata[sr.name]
				if sr.negative {
					need++
				}
				if strata[r.Head] < need {
					strata[r.Head] = need
					changed = true
				}
			}
		}
		if !changed {
			maxStratum := 0
			//lint:allow maporder max over the values is order-insensitive
			for _, s := range strata {
				if s > maxStratum {
					maxStratum = s
				}
			}
			return strata, maxStratum, nil
		}
		if iter == n+1 {
			break
		}
	}
	return nil, 0, fmt.Errorf("bloom: module %q is unstratifiable (nonmonotonic dependency cycle)", m.Name)
}
