// Package experiments is the public façade over the paper's evaluation
// (Section VIII): it regenerates the Figure 5 anomaly matrix and the
// Figure 11–14 performance figures on the simulated substrate. The heavy
// machinery lives in internal packages; this package re-exports exactly
// the surface a driver program needs, so `cmd/experiments` — or any other
// harness — depends only on the public API.
package experiments

import (
	"context"
	"io"

	"blazes/internal/chaos"
	iexp "blazes/internal/experiments"
	"blazes/internal/sim"
)

// Time is virtual simulation time (microseconds).
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Cell addresses one cell of the Figure 5 matrix: a consistency property
// under one delivery mechanism (a blazes.Coordination).
type Cell = iexp.Cell

// Anomalies records what the simulated substrate observed in one cell.
type Anomalies = chaos.Anomalies

// Fig5Matrix runs the Figure 5 anomaly/remediation matrix (3 properties ×
// 4 mechanisms) across the given number of seeds.
func Fig5Matrix(seeds int) map[Cell]Anomalies { return iexp.Fig5Matrix(seeds) }

// PrintFig5 renders the matrix the way the paper tabulates it.
func PrintFig5(w io.Writer, m map[Cell]Anomalies) { iexp.PrintFig5(w, m) }

// Fig11Config parameterizes the Storm wordcount throughput sweep.
type Fig11Config = iexp.Fig11Config

// Fig11Row is one (cluster size, commit mode) measurement.
type Fig11Row = iexp.Fig11Row

// DefaultFig11 returns the paper-scale sweep configuration.
func DefaultFig11() Fig11Config { return iexp.DefaultFig11() }

// Fig11 runs the wordcount sweep.
func Fig11(cfg Fig11Config) ([]Fig11Row, error) { return iexp.Fig11(cfg) }

// Fig11Context is Fig11 with cancellation: once ctx is done, the sweep's
// workers stop picking up new simulations and the call returns the
// context's error instead of rows.
func Fig11Context(ctx context.Context, cfg Fig11Config) ([]Fig11Row, error) {
	return iexp.Fig11Context(ctx, cfg)
}

// PrintFig11 renders the sweep rows.
func PrintFig11(w io.Writer, rows []Fig11Row) { iexp.PrintFig11(w, rows) }

// AdFigureConfig parameterizes an ad-network throughput/latency figure
// (Figures 12–14).
type AdFigureConfig = iexp.AdFigureConfig

// AdFigure is the measured figure: one series per coordination regime.
type AdFigure = iexp.AdFigure

// AdSeries is one regime's records-over-time series.
type AdSeries = iexp.AdSeries

// Fig12Or13 runs the ad-network comparison at the configured scale.
func Fig12Or13(cfg AdFigureConfig) (*AdFigure, error) { return iexp.Fig12Or13(cfg) }

// Fig12Or13Context is Fig12Or13 with cancellation; see Fig11Context.
func Fig12Or13Context(ctx context.Context, cfg AdFigureConfig) (*AdFigure, error) {
	return iexp.Fig12Or13Context(ctx, cfg)
}

// PrintAdFigure renders the figure as sampled series.
func PrintAdFigure(w io.Writer, fig *AdFigure, samples int) { iexp.PrintAdFigure(w, fig, samples) }
