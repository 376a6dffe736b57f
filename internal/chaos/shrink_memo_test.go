package chaos

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"blazes/internal/dataflow"
)

// countingWorkload counts the simulations run beneath a shrink, per
// (plan, seed) — the plan rendered from its raw fields, independently of the
// memo's own key.
type countingWorkload struct {
	Workload
	runs map[string]int
}

func (c *countingWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	key := fmt.Sprintf("%d %g", int64(plan.DelaySpread), plan.DupProb)
	for _, w := range plan.Partitions {
		key += fmt.Sprintf(" [%d,%d)", int64(w.From), int64(w.Until))
	}
	c.runs[fmt.Sprintf("%s seed %d", key, seed)]++
	return c.Workload.Run(seed, plan, mech)
}

func (c *countingWorkload) total() int {
	n := 0
	for _, k := range c.runs {
		n += k
	}
	return n
}

// TestShrinkMemoMatchesUnmemoized: over every corpus cell and every
// anomalous stripped cell of the suite, a shrink that answers repeated
// (plan, seed) probes from its memo yields the byte-identical trace —
// events, seeds, detail, Steps — as one that simulates every probe, and
// never simulates the same (plan, seed) twice.
func TestShrinkMemoMatchesUnmemoized(t *testing.T) {
	const seeds = 8
	type shrinkCase struct {
		w    Workload
		cell Cell
	}
	var cases []shrinkCase
	for _, cell := range loadCorpus(t) {
		w, err := LookupWorkload(cell.Workload)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, shrinkCase{w, cell})
	}
	for _, w := range Suite() {
		plan, err := PlanCheck(w, Config{Seeds: seeds})
		if err != nil {
			t.Fatal(err)
		}
		for _, cell := range plan.Cells {
			if cell.Stripped {
				cases = append(cases, shrinkCase{w, cell})
			}
		}
	}

	ctx := context.Background()
	shrunk, saved := 0, 0
	for _, c := range cases {
		name := fmt.Sprintf("%s/%s/%s", c.cell.Workload, c.cell.Mechanism, c.cell.Plan.Name)
		outcomes, err := RunCell(ctx, c.w, c.cell, nil, 1, c.cell.Seeds+1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !FoldCell(c.cell, outcomes).Observed.Any() {
			continue
		}
		shrunk++

		memoized := &countingWorkload{Workload: c.w, runs: map[string]int{}}
		got, err := ShrinkCell(ctx, memoized, c.cell, outcomes)
		if err != nil {
			t.Fatalf("%s: ShrinkCell: %v", name, err)
		}
		for key, n := range memoized.runs {
			if n > 1 {
				t.Errorf("%s: simulated %s %d times in one shrink", name, key, n)
			}
		}

		// The reference: the same shrinker with the memo taken out from
		// between it and the workload.
		target, events, err := cellEvents(c.cell, outcomes)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sh := newShrinker(c.w, c.cell, target)
		plain := &countingWorkload{Workload: c.w, runs: map[string]int{}}
		sh.w = plain
		want, err := sh.minimize(ctx, events, c.cell.Plan.Name, fmt.Errorf("did not reproduce"))
		if err != nil {
			t.Fatalf("%s: un-memoized shrink: %v", name, err)
		}

		gotBytes, err := got.Encode()
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := want.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("%s: memoized trace differs from the un-memoized one:\n%s\n--- want\n%s", name, gotBytes, wantBytes)
		}
		if len(plain.runs) != len(memoized.runs) {
			t.Errorf("%s: memoized shrink made %d distinct runs, un-memoized %d", name, len(memoized.runs), len(plain.runs))
		}
		saved += plain.total() - memoized.total()
	}
	if shrunk < 8 {
		t.Fatalf("only %d anomalous cells shrunk; the comparison is near-vacuous", shrunk)
	}
	if saved == 0 {
		t.Error("the un-memoized reference repeated no simulation: it is not a reference for the memo")
	}
	t.Logf("%d cells shrunk; the memo saved %d simulations", shrunk, saved)
}
