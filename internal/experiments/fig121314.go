package experiments

import (
	"context"
	"fmt"
	"io"

	"blazes/internal/adtrack"
	"blazes/internal/sim"
)

// AdSeries is one labelled progress curve of Figures 12–14.
type AdSeries struct {
	Label  string
	Series adtrack.Series
	// FinishedAt is the run's completion time.
	FinishedAt sim.Time
	// AvgBufferTime is the mean seal-buffering delay (seal regimes).
	AvgBufferTime sim.Time
}

// AdFigure is the full dataset of one of Figures 12–14.
type AdFigure struct {
	Title     string
	AdServers int
	Curves    []AdSeries
	// Total is the expected record count (the y-axis ceiling).
	Total int
}

// AdFigureConfig parameterizes the ad-network figures.
type AdFigureConfig struct {
	Seed             int64
	AdServers        int
	EntriesPerServer int
	// Sleep overrides the inter-burst pause (0 keeps the paper's value);
	// reduced workloads shorten it proportionally so that coordination —
	// not pacing — remains the bottleneck under comparison.
	Sleep sim.Time
	// BatchSize overrides the records-per-burst (0 keeps the paper's 50);
	// reduced workloads shrink it so the stream stays paced rather than
	// collapsing into one or two bursts.
	BatchSize int
	// IncludeOrdered adds the "Ordered" curve (Figures 12/13 include it;
	// Figure 14 omits it to highlight the seal variants).
	IncludeOrdered bool
}

// Fig12Or13 runs the four curves of Figure 12 (5 ad servers) or Figure 13
// (10 ad servers). The curves — one simulated deployment per coordination
// regime — run concurrently on one worker per GOMAXPROCS and collect in
// regime order, so the figure is identical to a sequential run.
func Fig12Or13(cfg AdFigureConfig) (*AdFigure, error) {
	return Fig12Or13Context(context.Background(), cfg)
}

// Fig12Or13Context is Fig12Or13 with cancellation: once ctx is done, sweep
// workers stop picking up new curves and the figure returns the context's
// error.
func Fig12Or13Context(ctx context.Context, cfg AdFigureConfig) (*AdFigure, error) {
	fig := &AdFigure{
		Title:     fmt.Sprintf("Log records processed over time, %d ad servers", cfg.AdServers),
		AdServers: cfg.AdServers,
		Total:     cfg.AdServers * cfg.EntriesPerServer,
	}
	type variant struct {
		label       string
		regime      adtrack.Regime
		independent bool
		include     bool
	}
	variants := []variant{
		{"Uncoordinated", adtrack.Uncoordinated, false, true},
		{"Ordered", adtrack.Ordered, false, cfg.IncludeOrdered},
		{"Independent Seal", adtrack.Sealed, true, true},
		{"Seal", adtrack.Sealed, false, true},
	}
	var included []variant
	for _, v := range variants {
		if v.include {
			included = append(included, v)
		}
	}
	results := make([]*adtrack.Result, len(included))
	errs := make([]error, len(included))
	if err := sim.NewPool(0).MapContext(ctx, len(included), func(i int) {
		v := included[i]
		rc := adtrack.DefaultConfig(cfg.AdServers, v.regime, v.independent)
		rc.Seed = cfg.Seed
		rc.Workload.EntriesPerServer = cfg.EntriesPerServer
		if cfg.Sleep > 0 {
			rc.Workload.Sleep = cfg.Sleep
		}
		if cfg.BatchSize > 0 {
			rc.Workload.BatchSize = cfg.BatchSize
		}
		results[i], errs[i] = adtrack.Run(rc)
	}); err != nil {
		return nil, err
	}
	for i, v := range included {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", v.label, errs[i])
		}
		res := results[i]
		fig.Curves = append(fig.Curves, AdSeries{
			Label:         v.label,
			Series:        res.Series,
			FinishedAt:    res.FinishedAt,
			AvgBufferTime: res.AvgBufferTime(),
		})
	}
	return fig, nil
}

// PrintAdFigure renders the curves as sampled series (records processed at
// evenly spaced times), the form the paper plots.
func PrintAdFigure(w io.Writer, fig *AdFigure, samples int) {
	fmt.Fprintf(w, "%s (total %d records)\n", fig.Title, fig.Total)
	var maxT sim.Time
	for _, c := range fig.Curves {
		if c.FinishedAt > maxT {
			maxT = c.FinishedAt
		}
	}
	if samples < 2 {
		samples = 2
	}
	fmt.Fprintf(w, "%12s", "time")
	for _, c := range fig.Curves {
		fmt.Fprintf(w, " %18s", c.Label)
	}
	fmt.Fprintln(w)
	for i := 0; i <= samples; i++ {
		t := maxT * sim.Time(i) / sim.Time(samples)
		fmt.Fprintf(w, "%11.1fs", t.Seconds())
		for _, c := range fig.Curves {
			fmt.Fprintf(w, " %18d", c.Series.At(t))
		}
		fmt.Fprintln(w)
	}
	for _, c := range fig.Curves {
		fmt.Fprintf(w, "# %-18s finished at %7.1fs", c.Label, c.FinishedAt.Seconds())
		if c.AvgBufferTime > 0 {
			fmt.Fprintf(w, ", avg seal buffering %6.1fs", c.AvgBufferTime.Seconds())
		}
		fmt.Fprintln(w)
	}
}
