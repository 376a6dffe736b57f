package adtrack

import (
	"testing"

	"blazes/internal/sim"
)

// TestNamesPinned holds the identifiers the workload generates to literals:
// they are wire data — every one appears verbatim in click rows, responses,
// chaos traces and digests — so a faster formatter must produce the same
// bytes, including the zero-padded forms and the widths padding no longer
// reaches.
func TestNamesPinned(t *testing.T) {
	for _, c := range []struct{ got, want string }{
		{AdName(0, 0), "ad00-0"},
		{AdName(7, 3), "ad07-3"},
		{AdName(10, 12), "ad10-12"},
		{AdName(100, 0), "ad100-0"},
		{CampaignName(0), "camp00"},
		{CampaignName(9), "camp09"},
		{CampaignName(10), "camp10"},
		{CampaignName(123), "camp123"},
		{ServerName(0), "adserver0"},
		{ServerName(12), "adserver12"},
	} {
		if c.got != c.want {
			t.Errorf("name %q, want %q", c.got, c.want)
		}
	}

	w := DefaultWorkload(2, false)
	w.Campaigns, w.AdsPerCampaign = 11, 3
	reqs := w.RequestPlan(1001, 5*sim.Millisecond)
	for _, c := range []struct {
		i    int
		want Request
	}{
		{0, Request{ID: "ad00-0", Campaign: "camp00", Window: "w0", ReqID: "req000", At: 5 * sim.Millisecond}},
		{3, Request{ID: "ad03-0", Campaign: "camp03", Window: "w3", ReqID: "req003", At: 20 * sim.Millisecond}},
		{10, Request{ID: "ad10-1", Campaign: "camp10", Window: "w2", ReqID: "req010", At: 55 * sim.Millisecond}},
		{100, Request{ID: "ad01-1", Campaign: "camp01", Window: "w0", ReqID: "req100", At: 505 * sim.Millisecond}},
		{1000, Request{ID: "ad10-1", Campaign: "camp10", Window: "w0", ReqID: "req1000", At: 5005 * sim.Millisecond}},
	} {
		if reqs[c.i] != c.want {
			t.Errorf("request %d = %+v, want %+v", c.i, reqs[c.i], c.want)
		}
	}

	w = DefaultWorkload(11, true)
	w.EntriesPerServer, w.Campaigns = 6, 11
	bursts := w.Plan()
	last := bursts[len(bursts)-1]
	if got, want := last.Clicks[5], (Click{ID: "ad10-0", Campaign: "camp10", Window: "w1", Server: "adserver10", Seq: 5}); got != want {
		t.Errorf("last click = %+v, want %+v", got, want)
	}
	if len(last.Seals) != 1 || last.Seals[0] != "camp10" {
		t.Errorf("last burst seals %v, want [camp10]", last.Seals)
	}
	if got, want := last.Clicks[5].Row().String(), "(ad10-0, camp10, w1, adserver10, 5)"; got != want {
		t.Errorf("click row %s, want %s", got, want)
	}
	if got, want := reqs[100].Row().String(), "(ad01-1, camp01, w0, req100)"; got != want {
		t.Errorf("request row %s, want %s", got, want)
	}
}
