package dataflow

import (
	"math/rand"
	"testing"
)

// TestLintAllocsLinear pins the allocation behavior of the hot read-only
// passes on a 2000-component graph. LintGraph builds the analyzer's
// interface table and its cycles exactly once per call, so its
// allocations must stay a small constant per component; Validate walks
// presized structures and allocates next to nothing on a valid graph. A
// regression to per-pass rebuilds or per-pop stream scans shows up here as
// an order-of-magnitude jump long before it shows up as wall-clock.
func TestLintAllocsLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 2000
	g := randomLayeredGraph(rng, 40, 50)
	cg := collapsedOf(t, g)

	lint := testing.AllocsPerRun(5, func() { LintGraph(cg) })
	// Measured ≈0.07 allocs/component; 12 leaves slack for runtime drift
	// without admitting a complexity regression.
	if perComp := lint / n; perComp > 12 {
		t.Errorf("LintGraph allocates %.1f allocs/component (total %.0f), want ≤ 12", perComp, lint)
	}

	val := testing.AllocsPerRun(5, func() { _ = cg.Validate() })
	if val > 8 {
		t.Errorf("Validate on a valid graph allocates %.0f, want ≤ 8", val)
	}

	a, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	// Explain renders a multi-line derivation per component; per-component
	// cost must stay bounded (it was ~33 when pinned).
	exp := testing.AllocsPerRun(5, func() { _ = a.Explain() })
	if perComp := exp / n; perComp > 60 {
		t.Errorf("Explain allocates %.1f allocs/component (total %.0f), want ≤ 60", perComp, exp)
	}
}
