package wc

import (
	"fmt"

	"blazes/internal/sim"
	"blazes/internal/storm"
)

// RunConfig parameterizes one wordcount run.
type RunConfig struct {
	// Seed drives all network nondeterminism.
	Seed int64
	// Workers is the cluster size: spout, splitter, count and committer
	// parallelism all scale with it, as components are spread across the
	// worker nodes.
	Workers int
	// Batches per spout instance.
	Batches int64
	// TuplesPerBatch per spout instance.
	TuplesPerBatch int
	// WordsPerTweet per tuple.
	WordsPerTweet int
	// VocabSize generates a synthetic vocabulary of that many words
	// (0 uses DefaultVocabulary). Large vocabularies balance the
	// hash-partitioned Count stage across instances.
	VocabSize int
	// Mode selects transactional (ordered) or sealed commits.
	Mode storm.CommitMode
	// Punctuate: when false, batch ends are guessed by timer — the
	// anomalous configuration exhibiting cross-run nondeterminism.
	Punctuate bool
	// Engine overrides; zero value uses storm.DefaultConfig.
	Engine *storm.Config
	// Deadline bounds the virtual run (0 = run to completion).
	Deadline sim.Time
	// Parallelism must be 0 or 1: a run is one sequential simulation, and
	// parallelism belongs to sweeps over runs (sim.Pool). The field exists
	// only because benchmark/storm.go names it, and goes when that line
	// does (ROADMAP, Fig11 item).
	Parallelism int
}

// RunResult is the outcome of one run.
type RunResult struct {
	Metrics storm.Metrics
	Store   *Store
	Done    bool
	// At is the virtual time when the simulation stopped.
	At sim.Time
	// Steps is the number of events the simulation ran (sim.Steps).
	Steps uint64
}

// Run executes one wordcount topology to completion and returns its metrics
// and the final backing-store contents.
func Run(rc RunConfig) (RunResult, error) {
	if rc.Workers <= 0 {
		return RunResult{}, fmt.Errorf("wc: Workers must be positive")
	}
	if rc.Parallelism != 0 && rc.Parallelism != 1 {
		return RunResult{}, fmt.Errorf("wc: Parallelism %d: a run is sequential; parallelize across runs with sim.Pool", rc.Parallelism)
	}
	if rc.WordsPerTweet <= 0 {
		rc.WordsPerTweet = 4
	}
	if rc.TuplesPerBatch <= 0 {
		rc.TuplesPerBatch = 50
	}
	if rc.Batches <= 0 {
		rc.Batches = 10
	}

	s := sim.New(rc.Seed)
	cfg := storm.DefaultConfig()
	if rc.Engine != nil {
		cfg = *rc.Engine
	}
	cfg.Punctuate = rc.Punctuate

	spout := &TweetSpout{
		Batches:        rc.Batches,
		TuplesPerBatch: rc.TuplesPerBatch,
		WordsPerTweet:  rc.WordsPerTweet,
		Vocab:          SyntheticVocabulary(rc.VocabSize),
	}
	store := NewStore()

	tp := storm.NewTopology(s, cfg, rc.Mode)
	tp.SetSpout("tweets", spout, rc.Workers)
	tp.AddBolt("split", func(int) storm.Bolt { return Splitter{} }, rc.Workers, storm.ShuffleGrouping{}, "tweets")
	tp.AddBolt("count", func(int) storm.Bolt { return NewCount() }, rc.Workers, storm.FieldsGrouping{Fields: []int{0}}, "split")
	tp.AddCommitter("commit", func(int) storm.Bolt { return NewCommit(store) }, rc.Workers, storm.FieldsGrouping{Fields: []int{0}}, "count")
	if err := tp.Start(); err != nil {
		return RunResult{}, err
	}
	if rc.Deadline > 0 {
		s.RunUntil(rc.Deadline)
	} else {
		s.Run()
	}
	res := RunResult{Metrics: tp.Metrics(), Store: store, Done: tp.Done(), At: s.Now(), Steps: s.Steps()}
	s.Release()
	return res, nil
}
