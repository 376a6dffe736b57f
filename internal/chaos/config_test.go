package chaos

import (
	"context"
	"strings"
	"testing"

	"blazes/internal/dataflow"
)

// TestConfigValidation pins the configuration contract: Seeds defaults only
// at 0 and is rejected when negative. Parallelism, which nothing reads since
// a sweep sizes its pool from GOMAXPROCS, accepts only 0 and 1 — the old
// one-worker-per-CPU sentinel -1 and explicit worker counts included.
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string
	}{
		{name: "zero value defaults"},
		{name: "explicit seeds and parallelism", cfg: Config{Seeds: 4, Parallelism: 2}, wantErr: "must be 0 or 1"},
		{name: "sequential parallelism", cfg: Config{Seeds: 4, Parallelism: 1}},
		{name: "one worker per CPU sentinel", cfg: Config{Seeds: 4, Parallelism: -1}, wantErr: "must be 0 or 1"},
		{name: "negative seeds", cfg: Config{Seeds: -1}, wantErr: "Seeds must be non-negative"},
		{name: "parallelism below sentinel", cfg: Config{Parallelism: -2}, wantErr: "must be 0 or 1"},
		{name: "very negative parallelism", cfg: Config{Parallelism: -64}, wantErr: "must be 0 or 1"},
		{name: "seeds reported before parallelism", cfg: Config{Seeds: -5, Parallelism: -9}, wantErr: "Seeds must be non-negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := PlanCheck(SyntheticSet(), tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("PlanCheck: unexpected error %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("PlanCheck accepted %+v, want error containing %q", tc.cfg, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("PlanCheck error %q does not contain %q", err, tc.wantErr)
			}
			// Check goes through the same gate.
			if _, cerr := Check(context.Background(), SyntheticSet(), tc.cfg); cerr == nil || !strings.Contains(cerr.Error(), tc.wantErr) {
				t.Fatalf("Check error %v does not contain %q", cerr, tc.wantErr)
			}
		})
	}
}

// TestPlanCheckLayout pins the cell layout Check executes: coordinated
// cells first (mechanisms × plans, in recommendation then plan order),
// stripped cells last, defaults applied.
func TestPlanCheckLayout(t *testing.T) {
	p, err := PlanCheck(SyntheticChains(false), Config{})
	if err != nil {
		t.Fatalf("PlanCheck: %v", err)
	}
	plans := DefaultPlans()
	if want := 2 * len(plans); len(p.Cells) != want {
		t.Fatalf("got %d cells, want %d (coordinated + stripped)", len(p.Cells), want)
	}
	for i, cell := range p.Cells {
		if cell.Seeds != DefaultSeeds {
			t.Errorf("cell %d: Seeds = %d, want default %d", i, cell.Seeds, DefaultSeeds)
		}
		if cell.Plan.Name != plans[i%len(plans)].Name {
			t.Errorf("cell %d: plan %q, want %q", i, cell.Plan.Name, plans[i%len(plans)].Name)
		}
		if stripped := i >= len(plans); cell.Stripped != stripped {
			t.Errorf("cell %d: Stripped = %v, want %v", i, cell.Stripped, stripped)
		}
		if stripped := cell.Mechanism == dataflow.CoordNone; cell.Stripped != stripped {
			t.Errorf("cell %d: Mechanism = %v, Stripped = %v", i, cell.Mechanism, cell.Stripped)
		}
	}
	if p.VacuousReproduction {
		t.Error("synthetic-chains has coordination to strip; VacuousReproduction must be false")
	}
}

// TestParseCoordinationRoundTrip: every mechanism's String form — a row of
// dataflow's mechanism table — parses back, and junk is rejected.
func TestParseCoordinationRoundTrip(t *testing.T) {
	for _, c := range dataflow.Coordinations() {
		got, err := ParseCoordination(c.String())
		if err != nil || got != c {
			t.Errorf("ParseCoordination(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseCoordination("vector clocks (M9)"); err == nil {
		t.Error("ParseCoordination accepted an unknown mechanism")
	}
}
