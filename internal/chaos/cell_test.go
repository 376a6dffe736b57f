package chaos

import (
	"context"
	"encoding/json"
	"testing"
)

// TestSweepDeterminism is the cell contract Check and the benchmark rely
// on: each planned cell's seeds run in two ranges, on a workload rebuilt
// by name through LookupWorkload, then concatenated, folded and assembled,
// give a report byte-identical to Check of the same configuration.
func TestSweepDeterminism(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Seeds: 12}

	want, err := Check(ctx, SyntheticChains(false), cfg)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	wantJSON, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}

	plan, err := PlanCheck(SyntheticChains(false), cfg)
	if err != nil {
		t.Fatalf("PlanCheck: %v", err)
	}
	sweeps := make([]Sweep, len(plan.Cells))
	for i, cell := range plan.Cells {
		var outs []Outcome
		mid := cell.Seeds/2 + 1
		for _, r := range [][2]int{{1, mid}, {mid, cell.Seeds + 1}} {
			w, err := LookupWorkload(cell.Workload)
			if err != nil {
				t.Fatal(err)
			}
			part, err := RunCell(ctx, w, cell, nil, r[0], r[1])
			if err != nil {
				t.Fatalf("RunCell %s seeds [%d, %d): %v", cell.Workload, r[0], r[1], err)
			}
			outs = append(outs, part...)
		}
		sweeps[i] = FoldCell(cell, outs)
	}
	got, err := plan.Assemble(sweeps)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	gotJSON, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("ranged run differs from Check:\n--- ranged ---\n%s\n--- Check ---\n%s", gotJSON, wantJSON)
	}
}
