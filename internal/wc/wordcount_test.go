package wc

import (
	"fmt"
	"maps"
	"os"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"blazes/internal/sim"
	"blazes/internal/storm"
)

// referenceNextBatch is the generator NextBatch replaced, kept as its
// oracle: every word is hashed from scratch by wordIndex and every tweet is
// joined on its own.
func referenceNextBatch(s *TweetSpout, instance int, batch int64) ([]storm.Values, bool) {
	if batch >= s.Batches {
		return nil, false
	}
	vocab := s.Vocab
	if len(vocab) == 0 {
		vocab = DefaultVocabulary
	}
	tuples := make([]storm.Values, s.TuplesPerBatch)
	words := make([]string, s.WordsPerTweet)
	for j := range tuples {
		for k := range words {
			words[k] = vocab[wordIndex(instance, batch, j, k, len(vocab))]
		}
		tuples[j] = storm.Values{strings.Join(words, " ")}
	}
	return tuples, true
}

// wordIndex is FNV-1a over the four coordinates as little-endian 64-bit
// words.
func wordIndex(instance int, batch int64, tuple, pos, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [4]uint64{uint64(instance), uint64(batch), uint64(tuple), uint64(pos)} {
		for i := 0; i < 8; i++ {
			h ^= v >> (8 * i) & 0xff
			h *= prime64
		}
	}
	return int(h % uint64(n))
}

// matchReference fails t unless s.NextBatch(instance, batch) returns what
// the reference generator does, byte for byte, each tweet in a one-element
// Values a caller cannot append through.
func matchReference(t *testing.T, s *TweetSpout, instance int, batch int64) {
	t.Helper()
	at := fmt.Sprintf("%d batches, %d tweets of %d words, %d-word vocabulary; instance %d batch %d",
		s.Batches, s.TuplesPerBatch, s.WordsPerTweet, len(s.Vocab), instance, batch)
	got, gotOK := s.NextBatch(instance, batch)
	want, wantOK := referenceNextBatch(s, instance, batch)
	if gotOK != wantOK || len(got) != len(want) || (got == nil) != (want == nil) {
		t.Fatalf("%s: %d tuples (ok=%v, nil=%v), the reference %d (ok=%v, nil=%v)",
			at, len(got), gotOK, got == nil, len(want), wantOK, want == nil)
	}
	for j := range got {
		if len(got[j]) != 1 || cap(got[j]) != 1 || got[j][0] != want[j][0] {
			t.Fatalf("%s, tweet %d: %q (len %d, cap %d), the reference %q",
				at, j, got[j], len(got[j]), cap(got[j]), want[j][0])
		}
	}
}

func TestTweetSpoutMatchesReference(t *testing.T) {
	vocabs := [][]string{nil, {"calm"}, {"a", "bb", "ccc", "δδ", "seal", "replica", "x"}, SyntheticVocabulary(800)}
	for _, vocab := range vocabs {
		for _, words := range []int{0, 1, 4} {
			for _, tuples := range []int{0, 1, 500} {
				s := &TweetSpout{Batches: 5, TuplesPerBatch: tuples, WordsPerTweet: words, Vocab: vocab}
				for instance := range 4 {
					for batch := range int64(6) {
						matchReference(t, s, instance, batch)
					}
				}
			}
		}
	}
}

// FuzzTweetSpout holds NextBatch to the reference generator. The vocabulary
// is a comma-separated list (empty for the default one), so words may be
// empty or repeat.
func FuzzTweetSpout(f *testing.F) {
	f.Add(0, int64(0), int64(5), "", uint8(4), uint16(500))
	f.Add(3, int64(5), int64(5), "calm", uint8(1), uint16(1))
	f.Add(2, int64(4), int64(5), "a,bb,ccc,δδ,seal,replica,x", uint8(0), uint16(0))
	f.Add(1, int64(3), int64(5), strings.Join(SyntheticVocabulary(800), ","), uint8(4), uint16(500))
	f.Add(-1, int64(-7), int64(2), ",,x,", uint8(7), uint16(300))
	f.Fuzz(func(t *testing.T, instance int, batch, batches int64, vocab string, words uint8, tuples uint16) {
		s := &TweetSpout{Batches: batches, TuplesPerBatch: int(tuples % 1024), WordsPerTweet: int(words % 16)}
		if vocab != "" {
			s.Vocab = strings.Split(vocab, ",")
		}
		matchReference(t, s, instance, batch)
	})
}

// TestStoreDoesNotPinSpoutText feeds one spout share through Splitter,
// Count and Commit into the Store by hand: every word the bolts pass on is a
// substring of the share's one text, and no row key of the store may still
// point into it — a row outlives its batch, and would keep the whole text
// alive for the rest of the run.
func TestStoreDoesNotPinSpoutText(t *testing.T) {
	spout := &TweetSpout{Batches: 1, TuplesPerBatch: 50, WordsPerTweet: 4}
	tuples, _ := spout.NextBatch(0, 0)
	first, last := tuples[0][0], tuples[len(tuples)-1][0]
	lo := uintptr(unsafe.Pointer(unsafe.StringData(first)))
	hi := uintptr(unsafe.Pointer(unsafe.StringData(last))) + uintptr(len(last))
	inText := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= lo && p < hi
	}

	count, store := NewCount(), NewStore()
	commit := NewCommit(store)
	for _, v := range tuples {
		if !inText(v[0]) {
			t.Fatalf("tweet %q is not a substring of the share's text", v[0])
		}
		Splitter{}.Execute(storm.Tuple{Values: v}, func(w storm.Tuple) { count.Execute(w, nil) })
	}
	count.FinishBatch(0, func(out storm.Tuple) {
		if !inText(out.Values[0]) {
			t.Fatalf("Count emitted %q from outside the share's text", out.Values[0])
		}
		commit.Execute(out, nil)
	})
	commit.Commit(0)

	row := store.rows[0]
	if len(row) == 0 {
		t.Fatal("nothing was committed")
	}
	for _, w := range slices.Sorted(maps.Keys(row)) {
		if inText(w) {
			t.Errorf("store row key %q points into the spout share's text", w)
		}
	}
}

// TestRunReportsSteps: RunResult.Steps is the simulator's event count, the
// steps= that internal/storm's schedule golden recorded for a topology wired
// by hand as Run wires it, at that golden's clean configuration.
func TestRunReportsSteps(t *testing.T) {
	golden, err := os.ReadFile("../storm/testdata/schedule.golden")
	if err != nil {
		t.Fatal(err)
	}
	engine := storm.DefaultConfig()
	engine.Link.MaxDelay = 6 * sim.Millisecond
	checked := 0
	for line := range strings.Lines(string(golden)) {
		f := strings.Fields(line)
		if len(f) < 4 || f[1] != "clean" {
			continue
		}
		mode := storm.CommitSealed
		if f[0] == storm.CommitTransactional.String() {
			mode = storm.CommitTransactional
		}
		seed, err1 := strconv.ParseInt(strings.TrimPrefix(f[2], "seed="), 10, 64)
		want, err2 := strconv.ParseUint(strings.TrimPrefix(f[3], "steps="), 10, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("golden line %q: %v %v", line, err1, err2)
		}
		res, err := Run(RunConfig{
			Seed: seed, Workers: 4, Batches: 4, TuplesPerBatch: 300, WordsPerTweet: 4, VocabSize: 60,
			Mode: mode, Punctuate: true, Engine: &engine, Deadline: 2 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != want {
			t.Errorf("%s seed %d: Steps = %d, the schedule golden recorded %d", mode, seed, res.Steps, want)
		}
		checked++
	}
	if checked != 6 {
		t.Fatalf("checked %d golden lines, want the 6 clean ones", checked)
	}
}

func TestTweetSpoutDeterministicWorkload(t *testing.T) {
	s := &TweetSpout{Batches: 3, TuplesPerBatch: 5, WordsPerTweet: 4}
	a, okA := s.NextBatch(1, 2)
	b, okB := s.NextBatch(1, 2)
	if !okA || !okB || !reflect.DeepEqual(a, b) {
		t.Error("workload must be a pure function of (instance, batch)")
	}
	if _, ok := s.NextBatch(0, 3); ok {
		t.Error("batch beyond Batches must report ok=false")
	}
}

func TestSplitterSplitsWords(t *testing.T) {
	var got []string
	Splitter{}.Execute(storm.Tuple{Values: storm.Values{"calm seal storm"}}, func(out storm.Tuple) {
		got = append(got, out.Values[0])
	})
	want := []string{"calm", "seal", "storm"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("words = %v, want %v", got, want)
	}
}

func TestCountEmitsSortedPerBatchCounts(t *testing.T) {
	c := NewCount()
	for _, w := range []string{"b", "a", "b", "c", "a", "b"} {
		c.Execute(storm.Tuple{Batch: 7, Values: storm.Values{w}}, nil)
	}
	var got [][2]string
	c.FinishBatch(7, func(out storm.Tuple) {
		got = append(got, [2]string{out.Values[0], out.Values[1]})
	})
	want := [][2]string{{"a", "2"}, {"b", "3"}, {"c", "1"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("counts = %v, want %v", got, want)
	}
	// State for the batch is released.
	if len(c.perBatch) != 0 {
		t.Error("per-batch state should be freed after FinishBatch")
	}
}

func TestStoreIdempotentApply(t *testing.T) {
	st := NewStore()
	st.Apply(1, map[string]int64{"a": 2})
	st.Apply(1, map[string]int64{"a": 2}) // replayed commit
	st.Apply(0, map[string]int64{"b": 1})
	snap := st.Snapshot()
	if snap[1]["a"] != 2 || snap[0]["b"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	if !reflect.DeepEqual(st.CommitOrder(), []int64{1, 0}) {
		t.Errorf("order = %v", st.CommitOrder())
	}
}

func TestRunSealedProducesExactCounts(t *testing.T) {
	rc := RunConfig{Seed: 1, Workers: 4, Batches: 6, TuplesPerBatch: 20, WordsPerTweet: 4, Mode: storm.CommitSealed, Punctuate: true}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not complete")
	}
	spout := &TweetSpout{Batches: rc.Batches, TuplesPerBatch: rc.TuplesPerBatch, WordsPerTweet: rc.WordsPerTweet}
	want := spout.ExpectedCounts(rc.Workers)
	if got := res.Store.Snapshot(); !reflect.DeepEqual(got, toComparable(want)) {
		t.Errorf("store = %v\nwant %v", got, want)
	}
	if res.Metrics.AckedBatches != int(rc.Batches) {
		t.Errorf("acked = %d, want %d", res.Metrics.AckedBatches, rc.Batches)
	}
}

func toComparable(m map[int64]map[string]int64) map[int64]map[string]int64 { return m }

func TestRunTransactionalCommitsInBatchOrder(t *testing.T) {
	res, err := Run(RunConfig{Seed: 3, Workers: 4, Batches: 8, TuplesPerBatch: 10, WordsPerTweet: 3, Mode: storm.CommitTransactional, Punctuate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not complete")
	}
	order := res.Store.CommitOrder()
	for i, b := range order {
		if b != int64(i) {
			t.Fatalf("commit order = %v: transactional topologies must commit batches in order", order)
		}
	}
}

func TestRunSealedCommitsOutOfOrderSometimes(t *testing.T) {
	// Sealed commits are independent; across a few seeds we should observe
	// at least one out-of-order first-commit sequence.
	sawOutOfOrder := false
	for seed := int64(1); seed <= 10 && !sawOutOfOrder; seed++ {
		res, err := Run(RunConfig{Seed: seed, Workers: 4, Batches: 8, TuplesPerBatch: 10, WordsPerTweet: 3, Mode: storm.CommitSealed, Punctuate: true})
		if err != nil {
			t.Fatal(err)
		}
		order := res.Store.CommitOrder()
		for i, b := range order {
			if b != int64(i) {
				sawOutOfOrder = true
				break
			}
		}
	}
	if !sawOutOfOrder {
		t.Error("sealed mode never committed out of order across 10 seeds; independence lost?")
	}
}

// TestSealedConfluenceAcrossSeeds: the headline guarantee Blazes certifies
// for the sealed topology — identical final store contents for every
// network schedule.
func TestSealedConfluenceAcrossSeeds(t *testing.T) {
	var base map[int64]map[string]int64
	for seed := int64(1); seed <= 6; seed++ {
		res, err := Run(RunConfig{Seed: seed, Workers: 4, Batches: 5, TuplesPerBatch: 15, WordsPerTweet: 4, Mode: storm.CommitSealed, Punctuate: true})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Done {
			t.Fatalf("seed %d did not complete", seed)
		}
		snap := res.Store.Snapshot()
		if base == nil {
			base = snap
			continue
		}
		if !reflect.DeepEqual(base, snap) {
			t.Fatalf("seed %d produced different store contents: cross-run nondeterminism in sealed mode", seed)
		}
	}
}

// TestTransactionalDeterministicAcrossSeeds: ordering also removes
// cross-run nondeterminism (M1 sequencing).
func TestTransactionalDeterministicAcrossSeeds(t *testing.T) {
	var base map[int64]map[string]int64
	for seed := int64(1); seed <= 4; seed++ {
		res, err := Run(RunConfig{Seed: seed, Workers: 3, Batches: 4, TuplesPerBatch: 12, WordsPerTweet: 4, Mode: storm.CommitTransactional, Punctuate: true})
		if err != nil {
			t.Fatal(err)
		}
		snap := res.Store.Snapshot()
		if base == nil {
			base = snap
			continue
		}
		if !reflect.DeepEqual(base, snap) {
			t.Fatalf("seed %d diverged under transactional commits", seed)
		}
	}
}

// TestUnpunctuatedTimerFlushExhibitsRunAnomaly: without punctuations, batch
// contents are guessed by timers, so different network schedules commit
// different contents — the cross-run nondeterminism (Run) the analysis
// derives for the unsealed, uncoordinated wordcount.
func TestUnpunctuatedTimerFlushExhibitsRunAnomaly(t *testing.T) {
	engine := storm.DefaultConfig()
	engine.FlushTimeout = 3 * 1000 // 3ms: tight enough that stragglers occur
	snapshots := make([]map[int64]map[string]int64, 0, 8)
	for seed := int64(1); seed <= 8; seed++ {
		res, err := Run(RunConfig{Seed: seed, Workers: 4, Batches: 5, TuplesPerBatch: 30, WordsPerTweet: 4, Mode: storm.CommitSealed, Punctuate: false, Engine: &engine})
		if err != nil {
			t.Fatal(err)
		}
		snapshots = append(snapshots, res.Store.Snapshot())
	}
	allSame := true
	for _, s := range snapshots[1:] {
		if !reflect.DeepEqual(snapshots[0], s) {
			allSame = false
			break
		}
	}
	if allSame {
		t.Error("timer-flushed runs were identical across 8 seeds; expected cross-run nondeterminism")
	}
}

// TestDuplicateDeliveryIsDeduplicated: at-least-once duplication does not
// double-count.
func TestDuplicateDeliveryIsDeduplicated(t *testing.T) {
	engine := storm.DefaultConfig()
	engine.Link.DupProb = 0.3
	rc := RunConfig{Seed: 6, Workers: 3, Batches: 4, TuplesPerBatch: 15, WordsPerTweet: 3, Mode: storm.CommitSealed, Punctuate: true, Engine: &engine}
	res, err := Run(rc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not complete")
	}
	spout := &TweetSpout{Batches: rc.Batches, TuplesPerBatch: rc.TuplesPerBatch, WordsPerTweet: rc.WordsPerTweet}
	if !reflect.DeepEqual(res.Store.Snapshot(), spout.ExpectedCounts(rc.Workers)) {
		t.Error("duplicated delivery changed the counts")
	}
}

// TestSealedFasterThanTransactional: the headline Figure 11 relationship on
// a small instance — the sealed topology finishes the same workload sooner.
func TestSealedFasterThanTransactional(t *testing.T) {
	base := RunConfig{Seed: 9, Workers: 8, Batches: 20, TuplesPerBatch: 30, WordsPerTweet: 4, Punctuate: true}

	sealed := base
	sealed.Mode = storm.CommitSealed
	rs, err := Run(sealed)
	if err != nil {
		t.Fatal(err)
	}

	tx := base
	tx.Mode = storm.CommitTransactional
	rt, err := Run(tx)
	if err != nil {
		t.Fatal(err)
	}

	if !rs.Done || !rt.Done {
		t.Fatal("runs did not complete")
	}
	if rs.Metrics.FinishedAt >= rt.Metrics.FinishedAt {
		t.Errorf("sealed (%v) should finish before transactional (%v)",
			rs.Metrics.FinishedAt, rt.Metrics.FinishedAt)
	}
	if !reflect.DeepEqual(rs.Store.Snapshot(), rt.Store.Snapshot()) {
		t.Error("both modes must produce identical outputs (they differ only in coordination)")
	}
}
