package substrate_test

import (
	"fmt"

	"blazes/substrate"
)

// Example runs the paper's wordcount topology on the simulated Storm
// engine with sealed (per-batch, uncoordinated) commits and reads the
// engine's metrics.
func Example() {
	res, err := substrate.RunWordcount(substrate.WordcountConfig{
		Seed:           1,
		Workers:        3,
		Batches:        4,
		TuplesPerBatch: 10,
		WordsPerTweet:  3,
		Mode:           substrate.CommitSealed,
		Punctuate:      true,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("done %v: %d tuples emitted, %d batches acked, %d stragglers\n",
		res.Done, res.Metrics.EmittedTuples, res.Metrics.AckedBatches, res.Metrics.Stragglers)
	// Output:
	// done true: 120 tuples emitted, 4 batches acked, 0 stragglers
}
