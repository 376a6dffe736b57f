package chaos

import (
	"context"
	"runtime"
	"testing"
)

// BenchmarkSweepPass is one pass of the benchmark's sweep-chaos workload: the
// suite plus the seed-8 generated topology, 16 seeds a cell under the default
// fault plans, each cell run, folded and assembled, then every anomalous
// stripped cell shrunk. The workloads are built once, as the benchmark builds
// them in its setup, so their shared plans are warm. It reports the bytes
// and the collections of a pass: a sweep's live heap is small, so its
// collections, and with them much of its time, follow its bytes. Run it at
// GOMAXPROCS=1 (-cpu 1) to count collections as a sequential pass sees them.
func BenchmarkSweepPass(b *testing.B) {
	const seeds = 16
	ctx := context.Background()
	suite := append(Suite(), Generated(40, 8))
	pass := func() {
		for _, w := range suite {
			plan, err := PlanCheck(w, Config{Seeds: seeds})
			if err != nil {
				b.Fatal(err)
			}
			sweeps := make([]Sweep, len(plan.Cells))
			outcomes := make([][]Outcome, len(plan.Cells))
			for k, cell := range plan.Cells {
				if outcomes[k], err = RunCell(ctx, w, cell, nil, 1, cell.Seeds+1); err != nil {
					b.Fatal(err)
				}
				sweeps[k] = FoldCell(cell, outcomes[k])
			}
			rep, err := plan.Assemble(sweeps)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Holds {
				b.Fatalf("the two-sided guarantee does not hold:\n%s", rep.Summary())
			}
			for k, cell := range plan.Cells {
				if cell.Stripped && sweeps[k].Observed.Any() {
					if _, err := ShrinkCell(ctx, w, cell, outcomes[k]); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	pass() // the shared plans, as the benchmark's setup pass builds them
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for range b.N {
		pass()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/n, "MB/pass")
	b.ReportMetric(float64(after.NumGC-before.NumGC)/n, "gc/pass")
}
