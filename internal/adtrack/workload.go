package adtrack

import (
	"strconv"

	"blazes/internal/bloom"
	"blazes/internal/sim"
)

// Workload generates the paper's ad-server click stream: each ad server
// produces EntriesPerServer log entries, dispatched in batches of BatchSize
// with a sleep between batches (Section VIII-B). Entries are generated
// campaign by campaign, and each server punctuates a campaign as soon as it
// has emitted its last record for it.
type Workload struct {
	// AdServers is the number of ad servers (5 or 10 in the paper).
	AdServers int
	// EntriesPerServer is the log entries each server produces (1000).
	EntriesPerServer int
	// BatchSize is the records dispatched per burst (50).
	BatchSize int
	// Sleep is the pause between bursts.
	Sleep sim.Time
	// Campaigns is the number of ad campaigns.
	Campaigns int
	// AdsPerCampaign sizes the ad id space within each campaign.
	AdsPerCampaign int
	// Independent masters each campaign at exactly one ad server (the
	// "independent seal" partitioning of Figure 14); otherwise every
	// server produces records for every campaign.
	Independent bool
}

// DefaultWorkload mirrors the paper's parameters.
func DefaultWorkload(adServers int, independent bool) Workload {
	return Workload{
		AdServers:        adServers,
		EntriesPerServer: 1000,
		BatchSize:        50,
		Sleep:            200 * sim.Millisecond,
		Campaigns:        10,
		AdsPerCampaign:   5,
		Independent:      independent,
	}
}

// padded renders a non-negative n in at least width digits, as %0*d does.
// The names below are wire data (TestNamesPinned): they appear verbatim in
// rows, traces and digests.
func padded(n, width int) string {
	s := strconv.Itoa(n)
	for len(s) < width {
		s = "0" + s
	}
	return s
}

// CampaignName returns the canonical campaign identifier.
func CampaignName(c int) string { return "camp" + padded(c, 2) }

// AdName returns the canonical ad identifier within a campaign.
func AdName(campaign, ad int) string { return "ad" + padded(campaign, 2) + "-" + strconv.Itoa(ad) }

// ServerName returns the canonical ad-server identifier.
func ServerName(s int) string { return "adserver" + strconv.Itoa(s) }

// Click is one log record. Seq is a per-server sequence number making every
// record unique (a click log is a bag of events; without it the runtime's
// set semantics would collapse repeated clicks into one row).
type Click struct {
	ID       string
	Campaign string
	Window   string
	Server   string
	Seq      int64
}

// Row converts the click to the Report module's click schema.
func (c Click) Row() bloom.Row {
	return bloom.Row{bloom.S(c.ID), bloom.S(c.Campaign), bloom.S(c.Window), bloom.S(c.Server), bloom.I(c.Seq)}
}

// Burst is one dispatched batch from one ad server, with the campaigns the
// server completed (and therefore seals) at the end of this burst.
type Burst struct {
	Server string
	At     sim.Time
	Clicks []Click
	Seals  []string
}

// campaignsOf returns the campaigns server s produces, in emission order.
func (w Workload) campaignsOf(s int) []int {
	var out []int
	for c := 0; c < w.Campaigns; c++ {
		if !w.Independent || c%w.AdServers == s {
			out = append(out, c)
		}
	}
	return out
}

// Plan lays out every burst for every server deterministically (the
// workload is a pure function of its parameters, so different simulator
// seeds replay identical inputs). Each server walks its campaigns in order,
// splitting its entries evenly across them; a campaign's seal is attached
// to the burst containing its final record. Servers run at slightly
// staggered paces (later servers sleep a little longer), which is what
// makes the unanimous-vote wait of the non-independent seal strategy
// visible: a partition releases only when the slowest of its producers has
// punctuated it.
func (w Workload) Plan() []Burst {
	var bursts []Burst
	for s := 0; s < w.AdServers; s++ {
		server := ServerName(s)
		campaigns := w.campaignsOf(s)
		if len(campaigns) == 0 {
			continue
		}
		perCampaign := w.EntriesPerServer / len(campaigns)
		extra := w.EntriesPerServer % len(campaigns)
		sleep := w.Sleep + w.Sleep*sim.Time(s)/sim.Time(8*max(1, w.AdServers-1))

		var pending []Click
		var pendingSeals []string
		burstAt := sim.Time(0)
		seq := int64(0)
		flush := func() {
			if len(pending) == 0 && len(pendingSeals) == 0 {
				return
			}
			bursts = append(bursts, Burst{Server: server, At: burstAt, Clicks: pending, Seals: pendingSeals})
			pending, pendingSeals = nil, nil
			burstAt += sleep
		}
		emit := func(c, k int, sealAfterLast bool, n int) {
			ad := (s + k) % w.AdsPerCampaign
			pending = append(pending, Click{
				ID:       AdName(c, ad),
				Campaign: CampaignName(c),
				Window:   "w" + strconv.Itoa(k%4),
				Server:   server,
				Seq:      seq,
			})
			seq++
			if sealAfterLast && k == n-1 {
				pendingSeals = append(pendingSeals, CampaignName(c))
			}
			if len(pending) >= w.BatchSize {
				flush()
			}
		}
		counts := make([]int, len(campaigns))
		for ci := range campaigns {
			counts[ci] = perCampaign
			if ci < extra {
				counts[ci]++
			}
		}
		if w.Independent {
			// A campaign's master works through it contiguously and
			// punctuates it the moment its chunk is done — high
			// "coordination locality" (Section X).
			for ci, c := range campaigns {
				for k := 0; k < counts[ci]; k++ {
					emit(c, k, true, counts[ci])
				}
			}
		} else {
			// No ownership, no locality: records of all campaigns
			// interleave across the whole stream, so a server can only
			// punctuate when its stream ends.
			done := 0
			progress := make([]int, len(campaigns))
			for done < len(campaigns) {
				for ci, c := range campaigns {
					if progress[ci] >= counts[ci] {
						continue
					}
					emit(c, progress[ci], false, counts[ci])
					progress[ci]++
					if progress[ci] == counts[ci] {
						done++
					}
				}
			}
			for _, c := range campaigns {
				pendingSeals = append(pendingSeals, CampaignName(c))
			}
		}
		flush()
	}
	return bursts
}

// Request is one analyst query.
type Request struct {
	ID       string
	Campaign string
	Window   string
	ReqID    string
	At       sim.Time
}

// Row converts the request to the Report module's request schema.
func (r Request) Row() bloom.Row {
	return bloom.Row{bloom.S(r.ID), bloom.S(r.Campaign), bloom.S(r.Window), bloom.S(r.ReqID)}
}

// RequestPlan generates n requests spread across the run, cycling through
// campaigns and ads; deterministic like the click plan.
func (w Workload) RequestPlan(n int, spacing sim.Time) []Request {
	out := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		c := i % w.Campaigns
		out = append(out, Request{
			ID:       AdName(c, i%w.AdsPerCampaign),
			Campaign: CampaignName(c),
			Window:   "w" + strconv.Itoa(i%4),
			ReqID:    "req" + padded(i, 3),
			At:       sim.Time(i+1) * spacing,
		})
	}
	return out
}
