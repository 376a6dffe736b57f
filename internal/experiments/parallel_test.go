package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"blazes/internal/sim"
)

// TestFig11ParallelMatchesSequential: the sweep's rows — including the
// floating-point throughput aggregation — are identical whether the
// independent simulations run sequentially (GOMAXPROCS 1) or on a worker
// pool (GOMAXPROCS 8).
func TestFig11ParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := Fig11Config{
		Seed:           1,
		ClusterSizes:   []int{3, 5},
		TuplesPerBatch: 40,
		WordsPerTweet:  3,
		Duration:       60 * sim.Millisecond,
		Runs:           2,
	}
	seq, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(8)
	par, err := Fig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel rows differ:\nsequential %+v\nparallel   %+v", seq, par)
	}
}

// TestFig12ParallelMatchesSequential: the ad-network figure's curves are
// identical at any GOMAXPROCS.
func TestFig12ParallelMatchesSequential(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cfg := AdFigureConfig{
		Seed: 1, AdServers: 3, EntriesPerServer: 40,
		Sleep: 30 * sim.Millisecond, BatchSize: 10, IncludeOrdered: true,
	}
	seq, err := Fig12Or13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(4)
	par, err := Fig12Or13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallel figure differs:\nsequential %+v\nparallel   %+v", seq, par)
	}
}
