// Package experiments regenerates every figure and table of the paper's
// evaluation (Section VIII) plus the Figure 5 anomaly matrix, printing the
// same rows/series the paper reports. Absolute numbers come from the
// discrete-event simulator, not EC2, so only the shapes are expected to
// match; EXPERIMENTS.md records paper-vs-measured for each artifact.
package experiments

import (
	"context"
	"fmt"
	"io"

	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// Fig11Row is one point of Figure 11: wordcount throughput at a cluster
// size under both coordination regimes.
type Fig11Row struct {
	Workers       int
	Transactional float64 // tuples/sec (virtual)
	Sealed        float64
	Ratio         float64 // sealed / transactional
}

// Fig11Config parameterizes the sweep.
type Fig11Config struct {
	Seed           int64
	ClusterSizes   []int
	TuplesPerBatch int
	WordsPerTweet  int
	// Duration is the steady-state measurement window (virtual time);
	// throughput is acked tuples per second within it, as in the paper's
	// warmed-up 10-minute runs.
	Duration sim.Time
	// Runs averages each cell over this many seeds (the paper averages
	// three runs); 0 means 1.
	Runs int
}

// DefaultFig11 mirrors the paper's sweep (5–20 worker nodes).
func DefaultFig11() Fig11Config {
	return Fig11Config{
		Seed:           1,
		ClusterSizes:   []int{5, 10, 15, 20},
		TuplesPerBatch: 500,
		WordsPerTweet:  4,
		Duration:       1200 * sim.Millisecond,
		Runs:           3,
	}
}

// engineForFig11 tunes the storm engine so the transactional commit round
// is the serialization bottleneck, as on the paper's clusters: each batch's
// commit pays a readiness append per committer instance at the ordering
// service (growing with cluster size) plus a fixed broadcast/confirm round,
// while the sealed topology pays neither.
func engineForFig11() storm.Config {
	cfg := storm.DefaultConfig()
	cfg.EmitInterval = 10 * sim.Microsecond
	cfg.PerTupleCost = 4 * sim.Microsecond
	// Offered load at ~80% of the Count stage's capacity: the sealed
	// topology sustains it (throughput scales linearly with workers),
	// while the transactional topology is limited by its commit round.
	cfg.BatchInterval = 10 * sim.Millisecond
	// Quorum append per commit-protocol message at the ordering service.
	cfg.Sequencer.ProcessingCost = 450 * sim.Microsecond
	cfg.Sequencer.SubmitDelay = sim.LinkConfig{MinDelay: 2 * sim.Millisecond, MaxDelay: 5 * sim.Millisecond}
	cfg.Sequencer.DeliverDelay = sim.LinkConfig{MinDelay: 2 * sim.Millisecond, MaxDelay: 5 * sim.Millisecond}
	// Coordinator↔committer hops cross the cluster.
	cfg.Link.MinDelay = 2 * sim.Millisecond
	cfg.Link.MaxDelay = 12 * sim.Millisecond
	return cfg
}

// Fig11 runs the throughput sweep: each regime processes a saturating
// offered load for the measurement window; throughput is committed input
// tuples per second. The sweep's cells — every (cluster size, commit mode,
// seed) simulation — are independent, so they run concurrently on one
// worker per GOMAXPROCS and aggregate in cell order: the rows are identical
// to a sequential sweep.
func Fig11(cfg Fig11Config) ([]Fig11Row, error) {
	return Fig11Context(context.Background(), cfg)
}

// Fig11Context is Fig11 with cancellation: once ctx is done, sweep workers
// stop picking up new cells and the sweep returns the context's error.
func Fig11Context(ctx context.Context, cfg Fig11Config) ([]Fig11Row, error) {
	runs := cfg.Runs
	if runs <= 0 {
		runs = 1
	}
	modes := []storm.CommitMode{storm.CommitSealed, storm.CommitTransactional}

	// Enumerate the independent simulations.
	type cell struct {
		size int // index into ClusterSizes
		mode storm.CommitMode
		run  int
	}
	var cells []cell
	for si := range cfg.ClusterSizes {
		for _, mode := range modes {
			for r := 0; r < runs; r++ {
				cells = append(cells, cell{size: si, mode: mode, run: r})
			}
		}
	}

	tputs := make([]float64, len(cells))
	errs := make([]error, len(cells))
	if err := sim.NewPool(0).MapContext(ctx, len(cells), func(i int) {
		c := cells[i]
		w := cfg.ClusterSizes[c.size]
		engine := engineForFig11()
		// Enough batches to outlast the window at the offered rate.
		batches := int64(cfg.Duration/engine.BatchInterval) + 8
		rc := wc.RunConfig{
			Seed:           cfg.Seed + int64(c.run)*1000,
			Workers:        w,
			Batches:        batches,
			TuplesPerBatch: cfg.TuplesPerBatch,
			WordsPerTweet:  cfg.WordsPerTweet,
			VocabSize:      40 * w, // balanced hash partitioning at every size
			Mode:           c.mode,
			Punctuate:      true,
			Engine:         &engine,
			Deadline:       cfg.Duration,
		}
		res, err := wc.Run(rc)
		if err != nil {
			errs[i] = fmt.Errorf("fig11: %s w=%d: %w", c.mode, w, err)
			return
		}
		acked := float64(res.Metrics.AckedBatches) * float64(cfg.TuplesPerBatch) * float64(w)
		tputs[i] = acked / cfg.Duration.Seconds()
	}); err != nil {
		return nil, fmt.Errorf("fig11: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Aggregate cells into rows in sweep order.
	var rows []Fig11Row
	for si, w := range cfg.ClusterSizes {
		byMode := map[storm.CommitMode]float64{}
		for i, c := range cells {
			if c.size == si {
				byMode[c.mode] += tputs[i]
			}
		}
		row := Fig11Row{
			Workers:       w,
			Sealed:        byMode[storm.CommitSealed] / float64(runs),
			Transactional: byMode[storm.CommitTransactional] / float64(runs),
		}
		if row.Transactional > 0 {
			row.Ratio = row.Sealed / row.Transactional
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig11 renders the sweep as the paper's figure data.
func PrintFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Figure 11: Storm wordcount throughput (tuples/sec) vs cluster size")
	fmt.Fprintf(w, "%8s %16s %16s %8s\n", "workers", "transactional", "sealed", "ratio")
	for _, r := range rows {
		fmt.Fprintf(w, "%8d %16.0f %16.0f %7.2fx\n", r.Workers, r.Transactional, r.Sealed, r.Ratio)
	}
}
