package storm_test

import (
	"runtime"
	"testing"

	"blazes/internal/race"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// TestSealedRunAllocsPerTuple pins a whole sealed wordcount run, at the
// Fig. 11 engine tuning and half the batch size of its 20-worker cell, at no
// more than 1.8 allocations per emitted tweet (1.61 measured when the run
// takes up the topology the warm-up run released, 1.69 when it builds one).
// What remains is the Fields slice per tweet, one text per spout share, the
// bolts' per-batch maps and count strings, and, in a new topology, the slabs
// deliveries are carved from. The engine allocates nothing per message: a
// delivery is its own event.
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
	if perTuple := allocs / float64(emitted); perTuple > 1.8 {
		t.Errorf("%.0f allocations for %d emitted tuples = %.3f per tuple, want at most 1.8", allocs, emitted, perTuple)
	} else {
		t.Logf("%.3f allocations per emitted tuple", perTuple)
	}
}

// TestDuplicatingRunKeepsNoSpoutBatch pins a sealed run with duplicate
// delivery at no more than 220 bytes per emitted tweet (128 measured when
// the run takes up the first run's released topology, 197 when it builds
// one). A duplicate copies the message it repeats and its receiver drops it,
// so nothing reads a message again once it is sent: the spout routes every
// batch into one reused buffer, and no instance keeps what it emitted.
func TestDuplicatingRunKeepsNoSpoutBatch(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	engine := storm.DefaultConfig()
	engine.PerTupleCost = 4 * sim.Microsecond
	engine.BatchInterval = 10 * sim.Millisecond
	engine.Link.MinDelay = 2 * sim.Millisecond
	engine.Link.MaxDelay = 12 * sim.Millisecond
	engine.Link.DupProb = 0.25
	rc := wc.RunConfig{
		Seed: 1, Workers: 20, Batches: 12, TuplesPerBatch: 250, WordsPerTweet: 1, VocabSize: 800,
		Mode: storm.CommitSealed, Punctuate: true, Engine: &engine,
	}
	run := func() int {
		res, err := wc.Run(rc)
		if err != nil || !res.Done {
			t.Fatalf("run: done=%v err=%v", res.Done, err)
		}
		return res.Metrics.EmittedTuples
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	emitted := run()
	runtime.ReadMemStats(&after)
	if perTuple := float64(after.TotalAlloc-before.TotalAlloc) / float64(emitted); perTuple > 220 {
		t.Errorf("%.0f bytes per emitted tuple, want at most 220", perTuple)
	} else {
		t.Logf("%.0f bytes per emitted tuple", perTuple)
	}
}
