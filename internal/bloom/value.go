// Package bloom is a Bloom-like declarative runtime (modelled on Bud): a
// program is a set of collections — persistent tables, per-timestep
// scratches, and network channels — and rules over a small relational
// algebra, evaluated to fixpoint each timestep. The package also implements
// the paper's "white box" static analysis (Section VII): monotonicity and
// state analyses that derive each module's C.O.W.R. annotations and
// partition subscripts automatically, plus the lineage catalog that detects
// injective functional dependencies for seal compatibility.
//
// The repro band for this paper notes that Go lacks the algebraic data
// types of the Ruby-embedded Bloom DSL; rules are therefore expressed as an
// explicit typed AST (package-level constructors like Scan, Project, Join,
// GroupBy, AntiJoin), which is exactly what makes the same static analyses
// possible.
//
// Concurrency contract: the package keeps no mutable package-level state
// beyond two sync.Pools — canonPool, scratch buffers that no result outlives
// (pinned under -race by TestCanonicalTextConcurrent), and shelves, the
// nodes Release handed back emptied (TestReleasedNodeMatchesFresh) — and a
// Node touches only its own stores, so distinct replicas may be constructed
// and ticked concurrently (the chaos harness's parallel sweeps rely on this;
// pinned under -race by TestConcurrentTickAcrossReplicas). A single Node
// remains single-threaded: Deliver and Tick must not race with themselves,
// and a released node may next run on another goroutine. NewNode only reads
// the module it instantiates, so replicas may share one; a module is never
// pooled, only the emptied per-run state compiled from it.
package bloom

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// Val is a field value: a string or an int64.
type Val any

// S wraps a string value.
func S(s string) Val { return s }

// I wraps an integer value.
func I(i int64) Val { return i }

// AsInt converts a Val to int64 when possible.
func AsInt(v Val) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case int:
		return int64(x), true
	case string:
		n, err := strconv.ParseInt(x, 10, 64)
		return n, err == nil
	default:
		return 0, false
	}
}

// AsString renders a Val.
func AsString(v Val) string {
	switch x := v.(type) {
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case int:
		return strconv.Itoa(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// valsEqual compares two Vals, letting int64 and numeric strings unify only
// when both are the same dynamic type (tuples are structured data, not
// text). It is total: values outside string/int64 (possible via rule
// constants) compare by rendered form, mirroring key()'s "o" encoding,
// instead of panicking on non-comparable types.
func valsEqual(a, b Val) bool {
	switch x := a.(type) {
	case int64:
		y, ok := b.(int64)
		return ok && x == y
	case string:
		y, ok := b.(string)
		return ok && x == y
	default:
		switch b.(type) {
		case int64, string:
			return false
		}
		return AsString(a) == AsString(b)
	}
}

// compareVals orders two Vals: ints numerically, strings lexicographically,
// ints before strings across types (a stable arbitrary choice).
func compareVals(a, b Val) int {
	ai, aok := a.(int64)
	bi, bok := b.(int64)
	switch {
	case aok && bok:
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		default:
			return 0
		}
	case aok:
		return -1
	case bok:
		return 1
	default:
		return strings.Compare(AsString(a), AsString(b))
	}
}

// Row is one tuple.
type Row []Val

// FNV-1a constants for the allocation-free row hashes used by store
// membership, joins, and grouping on the hot path.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	return h
}

// hashVal folds one value into an FNV-1a hash. Values are tagged by dynamic
// type so I(1) and S("1") hash differently, and strings are length-prefixed
// so adjacent values cannot concatenate ambiguously (("as","b") vs
// ("a","sb")) — both mirroring key()'s encoding.
func hashVal(h uint64, v Val) uint64 {
	switch x := v.(type) {
	case int64:
		h = hashByte(h, 'i')
		for s := 0; s < 64; s += 8 {
			h = hashByte(h, byte(x>>s))
		}
		return h
	case string:
		h = hashByte(h, 's')
		h = hashLen(h, len(x))
		return hashString(h, x)
	default:
		// Deliver rejects other types, but stay total for values built by
		// rule constants.
		h = hashByte(h, 'o')
		s := AsString(x)
		h = hashLen(h, len(s))
		return hashString(h, s)
	}
}

func hashLen(h uint64, n int) uint64 {
	for s := 0; s < 32; s += 8 {
		h = hashByte(h, byte(n>>s))
	}
	return h
}

// hash is the row's set-membership hash. Collisions are resolved by bucket
// scans with rowsSame, so the hash only needs to be well-distributed, not
// unique.
func (r Row) hash() uint64 {
	h := fnvOffset64
	for _, v := range r {
		h = hashVal(h, v)
	}
	return h
}

// hashAt hashes the projection of r onto the given column indexes (join and
// group keys) without materializing the key row.
func hashAt(r Row, idx []int) uint64 {
	h := fnvOffset64
	for _, j := range idx {
		h = hashVal(h, r[j])
	}
	return h
}

// rowsSame reports element-wise equality of two rows.
func rowsSame(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if !valsEqual(v, b[i]) {
			return false
		}
	}
	return true
}

// keysSameAt compares the a-projection onto aIdx with the b-projection onto
// bIdx (join-key equality across two schemas).
func keysSameAt(a Row, aIdx []int, b Row, bIdx []int) bool {
	for i, j := range aIdx {
		if !valsEqual(a[j], b[bIdx[i]]) {
			return false
		}
	}
	return true
}

// key encodes a row canonically for set membership.
func (r Row) key() string { return string(r.appendKey(nil)) }

// appendKey appends the row's canonical encoding to buf.
func (r Row) appendKey(buf []byte) []byte {
	for _, v := range r {
		switch x := v.(type) {
		case int64:
			buf = strconv.AppendInt(append(buf, 'i'), x, 10)
		case string:
			buf = strconv.AppendInt(append(buf, 's'), int64(len(x)), 10)
			buf = append(append(buf, ':'), x...)
		default:
			buf = fmt.Appendf(append(buf, 'o'), "%v", x)
		}
		buf = append(buf, '|')
	}
	return buf
}

// clone copies the row.
func (r Row) clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// String renders the row.
func (r Row) String() string { return string(r.appendString(nil)) }

// appendString appends the row's rendering — the bytes String returns and
// Node.Digest hashes — to buf.
func (r Row) appendString(buf []byte) []byte {
	buf = append(buf, '(')
	for i, v := range r {
		if i > 0 {
			buf = append(buf, ", "...)
		}
		switch x := v.(type) {
		case string:
			buf = append(buf, x...)
		case int64:
			buf = strconv.AppendInt(buf, x, 10)
		default:
			buf = append(buf, AsString(x)...)
		}
	}
	return append(buf, ')')
}

// encoded is one row's span in a shared buffer of encodings.
type encoded struct {
	off, end int
	row      Row
}

// canonScratch is the scratch behind canonical text: the encodings of a
// row set, their spans, and the text built from them. SortRows, Render and
// Digest draw it from canonPool and hand it back, so a sweep's thousands of
// short-lived nodes share a few buffers instead of allocating three per
// collection each time one is digested.
type canonScratch struct {
	enc   []byte
	spans []encoded
	text  []byte
}

var canonPool = sync.Pool{New: func() any { return new(canonScratch) }}

func getScratch() *canonScratch { return canonPool.Get().(*canonScratch) }

// release clears the spans' row references, so that the pool pins no rows,
// and returns c to the pool.
func (c *canonScratch) release() {
	clear(c.spans)
	canonPool.Put(c)
}

// encodeSorted is decorate-sort: every row is encoded once, by enc, into
// c.enc — not inside a comparator — and c.spans comes back ordered by
// encoding. rows itself is only read.
func (c *canonScratch) encodeSorted(rows []Row, enc func(Row, []byte) []byte) {
	c.enc, c.spans = c.enc[:0], c.spans[:0]
	for i, r := range rows {
		off := len(c.enc)
		c.enc = enc(r, c.enc)
		c.spans = append(c.spans, encoded{off, len(c.enc), r})
		if i == 0 {
			// Rows of one collection encode to similar lengths.
			c.enc = slices.Grow(c.enc, len(c.enc)*len(rows))
		}
	}
	slices.SortFunc(c.spans, func(a, b encoded) int { return bytes.Compare(c.enc[a.off:a.end], c.enc[b.off:b.end]) })
}

// SortRows orders rows canonically, by key (for deterministic iteration and
// comparison in tests).
func SortRows(rows []Row) {
	if len(rows) < 2 {
		return
	}
	c := getScratch()
	defer c.release()
	c.encodeSorted(rows, Row.appendKey)
	for i, e := range c.spans {
		rows[i] = e.row
	}
}

// renderSorted renders each row once, as String does, and joins the
// renderings in sorted order with commas: the canonical text of a row set.
func renderSorted(rows []Row) string {
	c := getScratch()
	defer c.release()
	c.encodeSorted(rows, Row.appendString)
	c.text = c.text[:0]
	for i, e := range c.spans {
		if i > 0 {
			c.text = append(c.text, ',')
		}
		c.text = append(c.text, c.enc[e.off:e.end]...)
	}
	return string(c.text)
}

// RowsEqual reports set equality of two row slices.
func RowsEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[string]int, len(a))
	for _, r := range a {
		seen[r.key()]++
	}
	for _, r := range b {
		k := r.key()
		seen[k]--
		if seen[k] < 0 {
			return false
		}
	}
	return true
}
