package experiments

import (
	"flag"
	"os"
	"strings"
	"testing"

	"blazes/internal/chaos"
	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/fig5.golden")

// TestFig5AnomalyMatrix pins the observable behaviour of every Figure 5
// cell: which anomalies occur under which property/mechanism combination.
func TestFig5AnomalyMatrix(t *testing.T) {
	m := Fig5Matrix(8)

	expect := map[Cell]chaos.Anomalies{
		// Confluent components never exhibit the anomalies.
		{Confluent, dataflow.CoordNone}:         {},
		{Confluent, dataflow.CoordSequenced}:    {},
		{Confluent, dataflow.CoordDynamicOrder}: {},
		{Confluent, dataflow.CoordSealed}:       {},
		// Convergent components prevent divergence only: reads race.
		{Convergent, dataflow.CoordNone}:         {Run: true, Inst: true},
		{Convergent, dataflow.CoordSequenced}:    {},
		{Convergent, dataflow.CoordDynamicOrder}: {Run: true},
		{Convergent, dataflow.CoordSealed}:       {},
		// Order-sensitive components exhibit everything uncoordinated.
		{OrderSensitive, dataflow.CoordNone}:         {Run: true, Inst: true, Diverge: true},
		{OrderSensitive, dataflow.CoordSequenced}:    {},
		{OrderSensitive, dataflow.CoordDynamicOrder}: {Run: true},
		{OrderSensitive, dataflow.CoordSealed}:       {},
	}

	for cell, want := range expect {
		got := m[cell]
		if got != want {
			t.Errorf("%s × %s: observed %v, want %v", cell.Prop, cell.Mech, got, want)
		}
	}

	// The printout of the same matrix — what `experiments -fig 5` shows —
	// is pinned byte for byte.
	var b strings.Builder
	PrintFig5(&b, m)
	const golden = "testdata/fig5.golden"
	if *update {
		if err := os.WriteFile(golden, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if b.String() != string(want) {
		t.Errorf("PrintFig5(Fig5Matrix(8)) differs from %s:\n%s", golden, b.String())
	}
}

func TestFig5Print(t *testing.T) {
	var b strings.Builder
	PrintFig5(&b, Fig5Matrix(3))
	out := b.String()
	for _, want := range []string{"confluent (P1)", "sealing (M3)", "Run:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// TestFig11Shape runs a reduced Figure 11 sweep and checks the paper's
// qualitative claims: the sealed topology wins everywhere, and its
// advantage grows with cluster size.
func TestFig11Shape(t *testing.T) {
	cfg := DefaultFig11()
	cfg.ClusterSizes = []int{5, 20}
	cfg.Duration = 400 * sim.Millisecond
	cfg.Runs = 1

	rows, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Ratio <= 1.0 {
			t.Errorf("w=%d: sealed/transactional ratio = %.2f, want > 1", r.Workers, r.Ratio)
		}
		if r.Sealed <= 0 || r.Transactional <= 0 {
			t.Errorf("w=%d: zero throughput", r.Workers)
		}
	}
	if rows[1].Ratio <= rows[0].Ratio {
		t.Errorf("ratio should grow with cluster size: %.2f@%d vs %.2f@%d",
			rows[0].Ratio, rows[0].Workers, rows[1].Ratio, rows[1].Workers)
	}
	// Sealed throughput scales with workers.
	if rows[1].Sealed <= rows[0].Sealed {
		t.Errorf("sealed throughput should scale: %.0f@%d vs %.0f@%d",
			rows[0].Sealed, rows[0].Workers, rows[1].Sealed, rows[1].Workers)
	}

	var b strings.Builder
	PrintFig11(&b, rows)
	if !strings.Contains(b.String(), "Figure 11") {
		t.Error("print output malformed")
	}
}

// TestFig12Shape runs a reduced Figure 12 and checks the qualitative
// relationships: seals track the uncoordinated baseline; ordering lags far
// behind.
func TestFig12Shape(t *testing.T) {
	fig, err := Fig12Or13(AdFigureConfig{Seed: 1, AdServers: 5, EntriesPerServer: 120, Sleep: 50 * sim.Millisecond, BatchSize: 10, IncludeOrdered: true})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AdSeries{}
	for _, c := range fig.Curves {
		byLabel[c.Label] = c
	}
	un := byLabel["Uncoordinated"]
	or := byLabel["Ordered"]
	ind := byLabel["Independent Seal"]
	seal := byLabel["Seal"]

	if un.Series.Final() != fig.Total {
		t.Errorf("uncoordinated processed %d of %d", un.Series.Final(), fig.Total)
	}
	for _, c := range fig.Curves {
		if c.Series.Final() != fig.Total {
			t.Errorf("%s processed %d of %d", c.Label, c.Series.Final(), fig.Total)
		}
	}
	if or.FinishedAt < 2*un.FinishedAt {
		t.Errorf("ordered (%v) should lag well behind uncoordinated (%v)", or.FinishedAt, un.FinishedAt)
	}
	if seal.FinishedAt > 2*un.FinishedAt {
		t.Errorf("seal (%v) should track uncoordinated (%v)", seal.FinishedAt, un.FinishedAt)
	}
	if ind.FinishedAt > 2*un.FinishedAt {
		t.Errorf("independent seal (%v) should track uncoordinated (%v)", ind.FinishedAt, un.FinishedAt)
	}

	var b strings.Builder
	PrintAdFigure(&b, fig, 8)
	if !strings.Contains(b.String(), "Uncoordinated") {
		t.Error("print output malformed")
	}
}

// TestFig13DoublingAdServers: doubling the ad servers should barely move
// the uncoordinated run but substantially slow the ordered one (the paper
// saw ~3×; we require ≥1.8× and that it exceed the uncoordinated factor).
func TestFig13DoublingAdServers(t *testing.T) {
	small, err := Fig12Or13(AdFigureConfig{Seed: 1, AdServers: 3, EntriesPerServer: 100, Sleep: 50 * sim.Millisecond, BatchSize: 10, IncludeOrdered: true})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Fig12Or13(AdFigureConfig{Seed: 1, AdServers: 6, EntriesPerServer: 100, Sleep: 50 * sim.Millisecond, BatchSize: 10, IncludeOrdered: true})
	if err != nil {
		t.Fatal(err)
	}
	get := func(f *AdFigure, label string) AdSeries {
		for _, c := range f.Curves {
			if c.Label == label {
				return c
			}
		}
		t.Fatalf("missing curve %s", label)
		return AdSeries{}
	}
	orRatio := float64(get(big, "Ordered").FinishedAt) / float64(get(small, "Ordered").FinishedAt)
	unRatio := float64(get(big, "Uncoordinated").FinishedAt) / float64(get(small, "Uncoordinated").FinishedAt)
	if orRatio < 1.8 {
		t.Errorf("ordered slowdown = %.2f, want ≥ 1.8", orRatio)
	}
	if unRatio >= orRatio {
		t.Errorf("uncoordinated slowdown (%.2f) should be well below ordered (%.2f)", unRatio, orRatio)
	}
}

// TestFig14SealShapes: the independent-seal curve buffers records for less
// time than the unanimous-vote variant, whose releases come in late steps.
func TestFig14SealShapes(t *testing.T) {
	fig, err := Fig12Or13(AdFigureConfig{Seed: 1, AdServers: 10, EntriesPerServer: 120, Sleep: 50 * sim.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	byLabel := map[string]AdSeries{}
	for _, c := range fig.Curves {
		byLabel[c.Label] = c
	}
	ind := byLabel["Independent Seal"]
	seal := byLabel["Seal"]
	if ind.AvgBufferTime >= seal.AvgBufferTime {
		t.Errorf("independent buffering (%v) should be below unanimous-vote buffering (%v)",
			ind.AvgBufferTime, seal.AvgBufferTime)
	}
	// The non-independent curve's mass arrives later: compare midpoint
	// progress.
	var maxT sim.Time
	for _, c := range fig.Curves {
		if c.FinishedAt > maxT {
			maxT = c.FinishedAt
		}
	}
	mid := maxT / 2
	if ind.Series.At(mid) < seal.Series.At(mid) {
		t.Errorf("independent progress at midpoint (%d) should lead the non-independent curve (%d)",
			ind.Series.At(mid), seal.Series.At(mid))
	}
}
