package bloom_test

import (
	"runtime"
	"testing"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/chaos"
	"blazes/internal/dataflow"
	"blazes/internal/race"
)

// TestRequestTickAllocs pins what the evaluator allocates where the chaos
// sweep and Figures 12–14 spend their Bloom time, so that a scan that copies
// the log again, a group index sized by input rows, or per-tick maps show up
// as a count rather than as a slower benchmark.
//
// One request tick of the CAMPAIGN module over a 1k-row click log regroups
// the whole log (the request's own tick re-reads nothing memoized: the
// delivered request bumps no version the standing query reads, so its
// second and later ticks are the memoized ones). One whole
// bloom-report-CAMPAIGN schedule is two replicas ingesting 60 clicks and
// answering 6 requests and 6 quiescent probes each.
func TestRequestTickAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	mod, err := adtrack.ReportModule(dataflow.CAMPAIGN, 100)
	if err != nil {
		t.Fatal(err)
	}
	n, err := bloom.NewNode("allocs", mod)
	if err != nil {
		t.Fatal(err)
	}
	wl := adtrack.DefaultWorkload(2, false)
	wl.EntriesPerServer = 500
	var clicks []bloom.Row
	for _, burst := range wl.Plan() {
		for _, c := range burst.Clicks {
			clicks = append(clicks, c.Row())
		}
	}
	if err := n.Deliver("click", clicks...); err != nil {
		t.Fatal(err)
	}
	req := adtrack.Request{ID: adtrack.AdName(0, 0), Campaign: adtrack.CampaignName(0), Window: "w0", ReqID: "r"}.Row()
	tick := func(deliver ...bloom.Row) {
		if err := n.Deliver("request", req); err != nil {
			t.Fatal(err)
		}
		if err := n.Deliver("click", deliver...); err != nil {
			t.Fatal(err)
		}
		em, err := n.Tick()
		if err != nil || len(em) != 1 || len(em[0].Rows) != 1 {
			t.Fatalf("request tick emitted %v, err %v; want one response", em, err)
		}
	}
	tick() // ingest the log
	// A quiet log: the standing query is memoized, the tick costs the
	// request's join and the emission.
	quiet := testing.AllocsPerRun(50, func() { tick() })
	// A log that moved: one new click makes the tick regroup 1k rows.
	fresh := int64(len(clicks))
	moved := testing.AllocsPerRun(50, func() {
		fresh++
		tick(adtrack.Click{ID: adtrack.AdName(0, 0), Campaign: adtrack.CampaignName(0), Window: "w0", Server: "late", Seq: fresh}.Row())
	})
	t.Logf("request tick over a %d-row log: %.0f allocations quiet, %.0f regrouping", n.Size("clicklog"), quiet, moved)
	if quiet > 22 {
		t.Errorf("a memoized request tick made %.0f allocations, want at most 22 (31 with per-tick maps and key sorts)", quiet)
	}
	if moved > 110 {
		t.Errorf("a regrouping request tick made %.0f allocations, want at most 110: one row per group and the quiet tick's (263 with a copied scan and a bucket per group)", moved)
	}

	w := chaos.ReplicatedReport(dataflow.CAMPAIGN)
	plan := chaos.DefaultPlans()[0]
	schedule := testing.AllocsPerRun(5, func() {
		if _, err := w.Run(1, plan, dataflow.CoordSealed); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("one bloom-report-CAMPAIGN schedule: %.0f allocations", schedule)
	if schedule > 1000 {
		t.Errorf("one bloom-report-CAMPAIGN schedule made %.0f allocations, want at most 1000 (3103 when every schedule rebuilt the plan, the module and every row)", schedule)
	}
}

// TestScheduleBytes pins the bytes a chaos-sized schedule allocates, which
// TestRequestTickAllocs' counts cannot see: a slice regrown from nothing, a
// copied row or an index that grows is one allocation of many bytes. The
// collector paces a sweep by bytes (EXPERIMENTS.md "The sweep pays the
// collector per byte"), so a schedule that allocates more runs slower even
// when its allocation count holds. Each bound is the measured mean plus a
// tenth; parent is what the tree allocated before a run handed its
// simulator and its nodes back for the next run to take up (Sim.Release,
// Node.Release).
func TestScheduleBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation sizes")
	}
	// One processor, as a sweep worker is one goroutine: a run takes up what
	// the run before it released on the same P, and a goroutine moved to
	// another P in between would build afresh.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	plan := chaos.DefaultPlans()[0]
	for _, c := range []struct {
		w             chaos.Workload
		bound, parent float64 // kB per schedule
	}{
		{chaos.ReplicatedReport(dataflow.CAMPAIGN), 40, 84.0},
		{chaos.AdNetwork(), 92, 178.4},
	} {
		run := func(seed int64) {
			if _, err := c.w.Run(seed, plan, dataflow.CoordSealed); err != nil {
				t.Fatal(err)
			}
		}
		run(0) // prepares the workload's shared plan
		const n = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for seed := int64(1); seed <= n; seed++ {
			run(seed)
		}
		runtime.ReadMemStats(&after)
		kb := float64(after.TotalAlloc-before.TotalAlloc) / n / 1024
		t.Logf("one %s schedule: %.1f kB", c.w.Name(), kb)
		if kb > c.bound {
			t.Errorf("one %s schedule allocated %.1f kB, want at most %.1f (%.1f before runs reused simulators and nodes)", c.w.Name(), kb, c.bound, c.parent)
		}
	}
}
