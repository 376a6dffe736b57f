package storm_test

import (
	"reflect"
	"testing"

	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// TestDuplicatesCommitOnce runs the chaos-sized wordcount (3 workers, 4
// batches of 8 tweets of 3 words) on links shaped as the chaos harness's
// "duplicate" plan shapes them: 4 ms more delay spread, and every message
// delivered twice with probability 0.25. A duplicate is dropped by the
// receiver's dedup state, whether or not its batch has finished there, so
// each committer commits each batch exactly once and the store holds the
// exact counts.
func TestDuplicatesCommitOnce(t *testing.T) {
	const workers, batches, tweets, words = 3, 4, 8, 3
	engine := storm.DefaultConfig()
	engine.Link.MaxDelay += 4 * sim.Millisecond
	engine.Link.DupProb = 0.25
	spout := &wc.TweetSpout{Batches: batches, TuplesPerBatch: tweets, WordsPerTweet: words}
	want := spout.ExpectedCounts(workers)
	for _, mode := range []storm.CommitMode{storm.CommitSealed, storm.CommitTransactional} {
		for seed := int64(1); seed <= 16; seed++ {
			res, err := wc.Run(wc.RunConfig{Seed: seed, Workers: workers, Batches: batches, TuplesPerBatch: tweets,
				WordsPerTweet: words, Mode: mode, Punctuate: true, Engine: &engine})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Errorf("%s seed %d: the run did not finish", mode, seed)
			}
			if got := res.Metrics.CommittedBatches; got != batches*workers {
				t.Errorf("%s seed %d: %d batch commits, want %d", mode, seed, got, batches*workers)
			}
			if !reflect.DeepEqual(res.Store.Snapshot(), want) {
				t.Errorf("%s seed %d: the store differs from the expected counts", mode, seed)
			}
		}
	}
}
