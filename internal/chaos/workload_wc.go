package chaos

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
	"blazes/internal/spec"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// WordcountWorkload runs the paper's streaming wordcount on the simulated
// Storm engine. Its dataflow carries Seal_batch on the tweet source, so the
// analyzer proves the outputs deterministic *provided* the runtime installs
// the sealing protocol — which is exactly Storm's batch punctuation plus
// sealed commits. The harness therefore maps:
//
//	CoordSealed    → punctuated batches, independent sealed commits (M3)
//	CoordSequenced → punctuated batches, transactional in-order commits (M1)
//	CoordNone      → punctuation stripped: batches are guessed by timer,
//	                 the anomalous configuration the paper warns about
//
// The outcome pairs the engine's committed store with the
// schedule-independent ground truth as a synthetic second replica, so the
// oracle's within-run comparison also checks exactness, not just
// schedule-invariance.
type WordcountWorkload struct {
	Workers        int
	Batches        int64
	TuplesPerBatch int
	WordsPerTweet  int
	// FlushTimeout is the timer used when punctuation is stripped; it is
	// deliberately inside the fault plans' delay spread so that late
	// tuples straggle.
	FlushTimeout sim.Time

	// truth is the schedule-independent ground-truth digest: it depends
	// only on the workload shape, not on seed, plan, or mechanism.
	truth once[string]
}

// Wordcount returns the default chaos-sized wordcount (small enough that a
// 64-seed sweep stays cheap).
func Wordcount() *WordcountWorkload {
	return &WordcountWorkload{
		Workers:        3,
		Batches:        4,
		TuplesPerBatch: 8,
		WordsPerTweet:  3,
		FlushTimeout:   5 * sim.Millisecond,
	}
}

// Name implements Workload.
func (w *WordcountWorkload) Name() string { return "wordcount-storm" }

// Graph implements Workload.
func (w *WordcountWorkload) Graph() (*dataflow.Graph, error) {
	return spec.WordcountGraph(true), nil
}

// Supports implements Workload.
func (w *WordcountWorkload) Supports(mech dataflow.Coordination) bool {
	switch mech {
	case dataflow.CoordNone, dataflow.CoordSealed, dataflow.CoordSequenced:
		return true
	}
	return false
}

// Run implements Workload.
func (w *WordcountWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	engine := storm.DefaultConfig()
	engine.Link = plan.Shape(engine.Link)
	engine.Sequencer = plan.shapeSequencer(engine.Sequencer)
	engine.FlushTimeout = w.FlushTimeout

	mode := storm.CommitSealed
	punctuate := true
	switch mech {
	case dataflow.CoordSealed:
	case dataflow.CoordSequenced:
		mode = storm.CommitTransactional
	case dataflow.CoordNone:
		punctuate = false
	default:
		return Outcome{}, fmt.Errorf("wordcount: unsupported mechanism %s", mech)
	}

	res, err := wc.Run(wc.RunConfig{
		Seed:           seed,
		Workers:        w.Workers,
		Batches:        w.Batches,
		TuplesPerBatch: w.TuplesPerBatch,
		WordsPerTweet:  w.WordsPerTweet,
		Mode:           mode,
		Punctuate:      punctuate,
		Engine:         &engine,
	})
	if err != nil {
		return Outcome{}, err
	}

	truth, _ := w.truth.get(func() (string, error) {
		spout := &wc.TweetSpout{
			Batches:        w.Batches,
			TuplesPerBatch: w.TuplesPerBatch,
			WordsPerTweet:  w.WordsPerTweet,
		}
		return digestCounts(spout.ExpectedCounts(w.Workers)), nil
	})
	return Outcome{Replicas: []ReplicaOutcome{
		{Final: digestCounts(res.Store.Rows())},
		{Final: truth},
	}}, nil
}

// digestCounts canonicalizes per-batch word counts: "b<batch>{word=count,…}"
// for each batch in order, words sorted, the batches separated by digestSep.
// It only reads counts.
func digestCounts(counts map[int64]map[string]int64) string {
	batches := slices.Sorted(maps.Keys(counts))
	return writeText(func(b []byte) []byte {
		for k, batch := range batches {
			if k > 0 {
				b = append(b, digestSep...)
			}
			b = append(strconv.AppendInt(append(b, 'b'), batch, 10), '{')
			for i, word := range slices.Sorted(maps.Keys(counts[batch])) {
				if i > 0 {
					b = append(b, ',')
				}
				b = strconv.AppendInt(append(append(b, word...), '='), counts[batch][word], 10)
			}
			b = append(b, '}')
		}
		return b
	})
}
