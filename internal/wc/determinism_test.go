package wc

import (
	"fmt"
	"runtime"
	"testing"

	"blazes/internal/sim"
	"blazes/internal/storm"
)

// runDigest renders everything observable about one run — metrics, commit
// order, and the full store contents — as one string.
func runDigest(rc RunConfig) (string, error) {
	res, err := Run(rc)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("metrics=%+v order=%v store=%v done=%v at=%d",
		res.Metrics, res.Store.CommitOrder(), res.Store.Snapshot(), res.Done, res.At), nil
}

// TestParallelRunByteIdentical pins what run-level sweeps (chaos.RunCell,
// experiments.Fig11Context) rely on: eight wordcount runs executing
// concurrently over a sim.Pool each produce the metrics, commit order and
// store contents of the same run executed alone, in both commit modes, under
// varying GOMAXPROCS. It holds because storm and wc keep no package-level
// state and every topology owns its delivery pool.
func TestParallelRunByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var runs []RunConfig
	for _, mode := range []storm.CommitMode{storm.CommitSealed, storm.CommitTransactional} {
		for seed := int64(1); seed <= 4; seed++ {
			runs = append(runs, RunConfig{
				Seed: seed, Workers: 3, Batches: 5, TuplesPerBatch: 20,
				WordsPerTweet: 4, Mode: mode, Punctuate: true,
			})
		}
	}
	want := make([]string, len(runs))
	for i, rc := range runs {
		var err error
		if want[i], err = runDigest(rc); err != nil {
			t.Fatal(err)
		}
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		got := make([]string, len(runs))
		errs := make([]error, len(runs))
		sim.NewPool(len(runs)).Map(len(runs), func(i int) { got[i], errs[i] = runDigest(runs[i]) })
		for i, rc := range runs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if got[i] != want[i] {
				t.Errorf("mode %s seed %d GOMAXPROCS %d: concurrent run differs:\n--- alone\n%s\n--- concurrent\n%s",
					rc.Mode, rc.Seed, procs, want[i], got[i])
			}
		}
	}
}

// TestRunRejectsParallelism: a run is sequential, and says so when asked
// for anything else.
func TestRunRejectsParallelism(t *testing.T) {
	for _, tc := range []struct {
		parallelism int
		ok          bool
	}{{0, true}, {1, true}, {2, false}, {-1, false}} {
		_, err := Run(RunConfig{Workers: 1, Batches: 1, TuplesPerBatch: 2, Punctuate: true, Parallelism: tc.parallelism})
		if (err == nil) != tc.ok {
			t.Errorf("Parallelism %d: err = %v, want ok %v", tc.parallelism, err, tc.ok)
		}
	}
}
