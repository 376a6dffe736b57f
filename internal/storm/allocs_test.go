package storm_test

import (
	"testing"

	"blazes/internal/race"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// TestSealedRunAllocsPerTuple pins a whole sealed wordcount run, at the
// Fig. 11 engine tuning and half the batch size of its 20-worker cell, at no
// more than three allocations per emitted tweet (2.99 measured). What remains
// is the workload's: a tweet's string, its Fields slice, the dedup bitsets and
// per-batch maps, and the slabs deliveries are carved from. The engine
// allocates nothing per message: a delivery is its own event.
func TestSealedRunAllocsPerTuple(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	engine := storm.DefaultConfig()
	engine.PerTupleCost = 4 * sim.Microsecond
	engine.BatchInterval = 10 * sim.Millisecond
	engine.Link.MinDelay = 2 * sim.Millisecond
	engine.Link.MaxDelay = 12 * sim.Millisecond
	rc := wc.RunConfig{
		Seed: 1, Workers: 20, Batches: 12, TuplesPerBatch: 250, WordsPerTweet: 4, VocabSize: 800,
		Mode: storm.CommitSealed, Punctuate: true, Engine: &engine,
	}
	var emitted int
	allocs := testing.AllocsPerRun(2, func() {
		res, err := wc.Run(rc)
		if err != nil || !res.Done {
			t.Fatalf("run: done=%v err=%v", res.Done, err)
		}
		emitted = res.Metrics.EmittedTuples
	})
	if perTuple := allocs / float64(emitted); perTuple > 3.0 {
		t.Errorf("%.0f allocations for %d emitted tuples = %.3f per tuple, want at most 3.0", allocs, emitted, perTuple)
	} else {
		t.Logf("%.3f allocations per emitted tuple", perTuple)
	}
}
