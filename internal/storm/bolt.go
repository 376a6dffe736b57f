package storm

// Emitter receives tuples produced by a bolt or spout.
type Emitter func(Tuple)

// Bolt is a stream operator. Execute processes one input tuple and may emit
// any number of output tuples; FinishBatch is called exactly once per batch
// after every input tuple of that batch has been executed, and may emit the
// batch's aggregated outputs (the pattern used by Count).
//
// Bolts are deterministic: identical inputs in identical order produce
// identical outputs (Section II). Order-sensitivity enters through the
// network, not the operator.
//
// The engine calls a topology's bolts from one goroutine, one call at a
// time, and routes each emitted tuple before emit returns.
type Bolt interface {
	Execute(t Tuple, emit Emitter)
	FinishBatch(batch int64, emit Emitter)
}

// Spout produces the input stream in numbered batches. Each spout instance
// is asked for its share of every batch; ok=false marks the end of the
// stream for that instance.
// The engine asks the instances of a batch in index order, from one
// goroutine.
type Spout interface {
	NextBatch(instance int, batch int64) (tuples []Values, ok bool)
}

// Grouping routes a tuple emitted by a producer to one or more consumer
// instances.
type Grouping interface {
	// Route appends to buf and returns the consumer instance indexes (out
	// of n) that must receive the tuple. rand is a deterministic PRNG draw
	// in [0, 1<<63). Callers pass a reusable buffer (typically buf[:0]) so
	// routing allocates nothing on the hot path.
	Route(t Tuple, n int, rand int64, buf []int) []int
}

// ShuffleGrouping sends each tuple to a uniformly random consumer instance —
// Storm's "random partitioning" used between tweets and Splitters.
type ShuffleGrouping struct{}

// Route implements Grouping.
func (ShuffleGrouping) Route(_ Tuple, n int, rand int64, buf []int) []int {
	return append(buf, int(rand%int64(n)))
}

// FieldsGrouping hash-partitions on selected fields — used between Splitter
// and Count so each word lands on a single counter.
type FieldsGrouping struct {
	// Fields are indexes into the tuple's Values.
	Fields []int
}

// fnv64 constants (FNV-1a), inlined so routing does not allocate a hasher.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Route implements Grouping.
func (g FieldsGrouping) Route(t Tuple, n int, _ int64, buf []int) []int {
	h := uint64(fnvOffset64)
	for _, f := range g.Fields {
		if f < len(t.Values) {
			v := t.Values[f]
			for i := 0; i < len(v); i++ {
				h ^= uint64(v[i])
				h *= fnvPrime64
			}
			// NUL field separator, as the previous hasher-based version
			// wrote it (h ^= 0 is a no-op).
			h *= fnvPrime64
		}
	}
	return append(buf, int(mix64(h)%uint64(n)))
}

// mix64 is the splitmix64 finalizer: FNV alone has poor low-bit avalanche
// on short keys, which skews modulo partitioning badly enough to unbalance
// whole stages.
func mix64(s uint64) uint64 {
	s ^= s >> 30
	s *= 0xbf58476d1ce4e9b9
	s ^= s >> 27
	s *= 0x94d049bb133111eb
	s ^= s >> 31
	return s
}

// GlobalGrouping routes every tuple to instance 0.
type GlobalGrouping struct{}

// Route implements Grouping.
func (GlobalGrouping) Route(_ Tuple, _ int, _ int64, buf []int) []int {
	return append(buf, 0)
}
