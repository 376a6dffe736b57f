package bloom_test

import (
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
