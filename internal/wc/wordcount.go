// Package wc implements the paper's running Storm example: a streaming
// wordcount over a tweet stream (Figure 2). Tweets are split into words by
// Splitter (annotated CR), tallied per (word, batch) by Count
// (OW_{word,batch}) and written to a backing store by Commit (CW). The
// package also provides the synthetic tweet workload and the shared backing
// store used to compare runs for the Figure 11 experiment and the anomaly
// tests.
package wc

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"blazes/internal/storm"
)

// DefaultVocabulary is a small word list with a skewed-ish mix of short
// terms, enough to create hash-partitioned fan-out across Count instances.
var DefaultVocabulary = []string{
	"calm", "bloom", "storm", "seal", "order", "replica", "batch", "word",
	"stream", "query", "click", "cloud", "shard", "log", "tuple", "graph",
	"lattice", "monotone", "quorum", "gossip", "cache", "commit", "ack",
	"spout", "bolt",
}

// SyntheticVocabulary builds an n-word synthetic vocabulary ("w000"…); n ≤ 0
// returns nil, selecting DefaultVocabulary.
func SyntheticVocabulary(n int) []string {
	if n <= 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = "w" + strconv.Itoa(i)
	}
	return out
}

// TweetSpout generates a deterministic synthetic tweet stream. Contents are
// derived by hashing (instance, batch, tuple, position), so two runs with
// different simulator seeds still process the *same* logical workload —
// exactly what cross-run determinism tests require.
type TweetSpout struct {
	// Batches is the number of batches each instance produces.
	Batches int64
	// TuplesPerBatch is the tweets per instance per batch.
	TuplesPerBatch int
	// WordsPerTweet is the words in each tweet.
	WordsPerTweet int
	// Vocab is the word list (DefaultVocabulary if nil).
	Vocab []string
}

// NextBatch implements storm.Spout. The word at position pos of tweet tuple
// is vocab[h % len(vocab)], h being FNV-1a over (instance, batch, tuple, pos)
// as little-endian 64-bit words. The hash state after (instance, batch) is
// taken once per share and after the tweet index once per tweet, so a word
// hashes only its position.
func (s *TweetSpout) NextBatch(instance int, batch int64) ([]storm.Values, bool) {
	if batch >= s.Batches {
		return nil, false
	}
	vocab := s.Vocab
	if len(vocab) == 0 {
		vocab = DefaultVocabulary
	}
	n := uint64(len(vocab))
	share := fnvWord(fnvWord(fnvOffset, uint64(instance)), uint64(batch))
	// The share's text is one string, sized exactly by a first pass; each
	// tweet is a substring of it.
	size := s.TuplesPerBatch * max(s.WordsPerTweet-1, 0) // the spaces
	for j := range s.TuplesPerBatch {
		tweet := fnvWord(share, uint64(j))
		for k := range s.WordsPerTweet {
			size += len(vocab[fnvWord(tweet, uint64(k))%n])
		}
	}
	var text strings.Builder
	text.Grow(size)
	tuples := make([]storm.Values, s.TuplesPerBatch)
	// One backing array for the whole share: each tuple's Values is a
	// capacity-clamped one-element subslice of it.
	tweets := make([]string, s.TuplesPerBatch)
	for j := range tuples {
		start := text.Len()
		tweet := fnvWord(share, uint64(j))
		for k := range s.WordsPerTweet {
			if k > 0 {
				text.WriteByte(' ')
			}
			text.WriteString(vocab[fnvWord(tweet, uint64(k))%n])
		}
		// Bytes a Builder has written never change, so this substring stays
		// valid while later tweets are appended.
		tweets[j] = text.String()[start:]
		tuples[j] = tweets[j : j+1 : j+1]
	}
	return tuples, true
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvPrimePow[i] is fnvPrime to the i-th power.
var fnvPrimePow = func() (p [9]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = p[i-1] * fnvPrime
	}
	return p
}()

// fnvWord continues the FNV-1a state h over v's eight little-endian bytes.
// A zero byte's step is a bare multiplication by the prime, so the steps of
// v's high zero bytes fold into one multiplication by a power of it: a
// position or tweet index costs one or two steps, not eight.
func fnvWord(h, v uint64) uint64 {
	i := 0
	for ; v != 0; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h * fnvPrimePow[8-i]
}

// ExpectedCounts computes the ground-truth per-batch word counts of the
// workload directly (no engine involved), for exactness assertions.
func (s *TweetSpout) ExpectedCounts(instances int) map[int64]map[string]int64 {
	out := map[int64]map[string]int64{}
	for b := int64(0); b < s.Batches; b++ {
		counts := map[string]int64{}
		for i := 0; i < instances; i++ {
			tuples, ok := s.NextBatch(i, b)
			if !ok {
				continue
			}
			for _, tv := range tuples {
				for _, w := range strings.Fields(tv[0]) {
					counts[w]++
				}
			}
		}
		out[b] = counts
	}
	return out
}

// Splitter divides tweets into their constituent words (annotation CR:
// stateless and confluent).
type Splitter struct{}

// Execute implements storm.Bolt.
func (Splitter) Execute(t storm.Tuple, emit storm.Emitter) {
	// One allocation per tweet: every emitted single-word tuple is a
	// capacity-clamped subslice of the Fields result.
	words := strings.Fields(t.Values[0])
	for i := range words {
		emit(storm.Tuple{Values: words[i : i+1 : i+1]})
	}
}

// FinishBatch implements storm.Bolt (no per-batch state).
func (Splitter) FinishBatch(int64, storm.Emitter) {}

// Count tallies words within each batch (annotation OW_{word,batch}:
// stateful and order-sensitive, but sealable on batch). At batch end it
// emits one (word, count) tuple per word, in sorted word order so the
// operator itself stays deterministic.
type Count struct {
	perBatch map[int64]map[string]int64
}

// NewCount returns a fresh counter instance.
func NewCount() *Count { return &Count{perBatch: map[int64]map[string]int64{}} }

// Execute implements storm.Bolt.
func (c *Count) Execute(t storm.Tuple, _ storm.Emitter) {
	m, ok := c.perBatch[t.Batch]
	if !ok {
		m = takeBatchMap()
		c.perBatch[t.Batch] = m
	}
	m[t.Values[0]]++
}

// releasedBatchMaps holds the emptied per-batch maps of Count and Commit:
// a batch's map goes back once its counts are read, and the next batch,
// of this run or a later one, fills it again without growing it.
var releasedBatchMaps sync.Pool

// takeBatchMap returns an empty batch map, a released one if there is one.
func takeBatchMap() map[string]int64 {
	if m, ok := releasedBatchMaps.Get().(map[string]int64); ok {
		return m
	}
	return map[string]int64{}
}

// releaseBatchMap empties m and hands it back.
func releaseBatchMap(m map[string]int64) {
	if m != nil {
		clear(m)
		releasedBatchMaps.Put(m)
	}
}

// FinishBatch implements storm.Bolt: emits the batch's counts.
func (c *Count) FinishBatch(batch int64, emit storm.Emitter) {
	m := c.perBatch[batch]
	words := make([]string, 0, len(m))
	for w := range m {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		emit(storm.Tuple{Values: storm.Values{w, strconv.FormatInt(m[w], 10)}})
	}
	delete(c.perBatch, batch)
	releaseBatchMap(m)
}

// Store is the backing store Commit writes to: per-batch word counts plus
// the order in which distinct batches first committed (used to verify the
// transactional total order and the sealed out-of-order behaviour).
type Store struct {
	rows  map[int64]map[string]int64
	order []int64
	seen  map[int64]bool
}

// NewStore returns an empty backing store.
func NewStore() *Store {
	return &Store{rows: map[int64]map[string]int64{}, seen: map[int64]bool{}}
}

// Apply merges one committer instance's rows for a batch.
func (s *Store) Apply(batch int64, counts map[string]int64) {
	if !s.seen[batch] {
		s.seen[batch] = true
		s.order = append(s.order, batch)
	}
	m, ok := s.rows[batch]
	if !ok {
		m = map[string]int64{}
		s.rows[batch] = m
	}
	for w, c := range counts {
		if _, ok := m[w]; !ok {
			// A word is a substring of its spout share's text; the row
			// outlives the batch and must not keep that text alive.
			w = strings.Clone(w)
		}
		m[w] = c // keyed overwrite: replays are idempotent
	}
}

// Rows lends the stored rows, batch → word → count, to read: they are the
// store's own, so the caller writes nothing into them, and a later Apply
// changes them. Snapshot copies them.
func (s *Store) Rows() map[int64]map[string]int64 { return s.rows }

// Snapshot returns a deep copy of the stored rows.
func (s *Store) Snapshot() map[int64]map[string]int64 {
	out := make(map[int64]map[string]int64, len(s.rows))
	for b, m := range s.rows {
		cp := make(map[string]int64, len(m))
		for w, c := range m {
			cp[w] = c
		}
		out[b] = cp
	}
	return out
}

// CommitOrder returns the distinct batches in first-commit order.
func (s *Store) CommitOrder() []int64 { return append([]int64(nil), s.order...) }

// Commit is the committer bolt: it buffers the counts for each batch and
// writes them to the backing store at commit time (annotation CW: the store
// is keyed by (word, batch), so appends are order-insensitive and replays
// idempotent).
type Commit struct {
	store   *Store
	pending map[int64]map[string]int64
}

// NewCommit returns a committer writing to store.
func NewCommit(store *Store) *Commit {
	return &Commit{store: store, pending: map[int64]map[string]int64{}}
}

// Execute implements storm.Bolt: buffer rows until commit.
func (c *Commit) Execute(t storm.Tuple, _ storm.Emitter) {
	m, ok := c.pending[t.Batch]
	if !ok {
		m = takeBatchMap()
		c.pending[t.Batch] = m
	}
	n, _ := strconv.ParseInt(t.Values[1], 10, 64)
	m[t.Values[0]] = n
}

// FinishBatch implements storm.Bolt (commit happens in Commit).
func (c *Commit) FinishBatch(int64, storm.Emitter) {}

// Commit implements storm.Committer: apply the batch durably.
func (c *Commit) Commit(batch int64) {
	m := c.pending[batch]
	c.store.Apply(batch, m)
	delete(c.pending, batch)
	releaseBatchMap(m)
}
