package bloom

import "fmt"

// Kind classifies a collection's persistence and visibility semantics
// (Bloom's collection types).
type Kind int

const (
	// Table is persistent state: contents survive across timesteps.
	Table Kind = iota
	// Scratch is transient: recomputed from rules each timestep, empty at
	// the start of every tick.
	Scratch
	// Channel is an asynchronous network collection: tuples inserted via
	// <~ are sent to the network and appear at the destination in some
	// later timestep, in nondeterministic order.
	Channel
	// Input is a module input interface (transient, like a scratch).
	Input
	// Output is a module output interface (transient).
	Output
)

// String names the kind as in Bloom.
func (k Kind) String() string {
	switch k {
	case Table:
		return "table"
	case Scratch:
		return "scratch"
	case Channel:
		return "channel"
	case Input:
		return "input"
	case Output:
		return "output"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Persistent reports whether contents survive the timestep.
func (k Kind) Persistent() bool { return k == Table }

// Transient reports whether the collection empties each timestep.
func (k Kind) Transient() bool { return !k.Persistent() }

// Schema is the ordered column names of a collection.
type Schema []string

// IndexOf returns the position of col, or -1.
func (s Schema) IndexOf(col string) int {
	for i, c := range s {
		if c == col {
			return i
		}
	}
	return -1
}

// Contains reports whether col is in the schema.
func (s Schema) Contains(col string) bool { return s.IndexOf(col) >= 0 }

// checkNoDupCols rejects schemas with repeated column names. Duplicate
// names make IndexOf ambiguous and break the evaluator's set-semantics
// reasoning, so every schema-producing site refuses them. The site is what
// (an operator, or a kind of declaration) and, if it has one, its name —
// put together only on failure, because Validate runs per node built.
func checkNoDupCols(s Schema, what, name string) error {
	seen := make(map[string]bool, len(s))
	for _, c := range s {
		if seen[c] {
			if name != "" {
				what = fmt.Sprintf("%s %q", what, name)
			}
			return fmt.Errorf("bloom: %s produces duplicate column %q (have %v)", what, c, s)
		}
		seen[c] = true
	}
	return nil
}

// Collection declares one named collection.
type Collection struct {
	Name   string
	Kind   Kind
	Schema Schema
}

// store is the runtime contents of a collection: a set of rows held flat in
// insertion order, indexed by FNV hash with element-wise equality resolving
// collisions. Rows sharing a hash are chained through next, newest first;
// head and next hold 1-based positions into rows, 0 ending a chain, so an
// insert allocates nothing per row. Rows held by a store are immutable by
// convention: the evaluator never mutates a row after construction, so
// inserts do not clone. Cloning happens only at the public boundary (Deliver
// in; snapshot/Rows/Emission out).
type store struct {
	// decl is the collection the store holds (nil for a bare test store).
	decl *Collection
	// rows is in insertion order, except that remove fills the hole it
	// leaves with the last row — a function of the operations applied,
	// never of map iteration, so scans are deterministic.
	rows []Row
	head map[uint64]int32
	next []int32
	// hashShift discards low hash bits; tests raise it to force collisions.
	hashShift uint
	// version counts mutations (it never repeats), so two reads of the
	// store under equal versions saw identical contents. Rule memoization
	// keys on it.
	version uint64
	// delta holds the rows newly inserted as of the last semi-naive
	// rotation; newDelta accumulates inserts since. Node.Tick owns the
	// rotation discipline.
	delta    []Row
	newDelta []Row
	// pendingIns/pendingDel apply at the start of the next tick (<+, <-,
	// and network deliveries); outbox gathers a tick's async (<~) merges
	// until the tick emits them.
	pendingIns, pendingDel, outbox []Row
}

func newStore() *store { return &store{head: map[uint64]int32{}} }

// hash is the row's index hash.
func (s *store) hash(r Row) uint64 { return r.hash() >> s.hashShift }

// find returns the 1-based position of r in the chain of hash h, or 0.
func (s *store) find(h uint64, r Row) int32 {
	for i := s.head[h]; i != 0; i = s.next[i-1] {
		if rowsSame(s.rows[i-1], r) {
			return i
		}
	}
	return 0
}

// relink repoints the one reference to position from in the chain of hash
// h — the head entry or a predecessor's next — at position to.
func (s *store) relink(h uint64, from, to int32) {
	if s.head[h] == from {
		if to == 0 {
			delete(s.head, h)
		} else {
			s.head[h] = to
		}
		return
	}
	i := s.head[h]
	for s.next[i-1] != from {
		i = s.next[i-1]
	}
	s.next[i-1] = to
}

// insert adds a row; reports whether it was new. The row is aliased, not
// cloned — callers must not mutate it afterwards.
func (s *store) insert(r Row) bool {
	h := s.hash(r)
	if s.find(h, r) != 0 {
		return false
	}
	s.next = append(s.next, s.head[h])
	s.rows = append(s.rows, r)
	s.head[h] = int32(len(s.rows))
	s.version++
	return true
}

// insertDelta inserts and records genuinely-new rows into newDelta for the
// semi-naive loop.
func (s *store) insertDelta(r Row) bool {
	if !s.insert(r) {
		return false
	}
	s.newDelta = append(s.newDelta, r)
	return true
}

// rotate promotes newDelta to delta, reporting whether anything changed.
func (s *store) rotate() bool {
	s.delta = s.newDelta
	s.newDelta = nil
	return len(s.delta) > 0
}

// clearDelta drops both delta generations.
func (s *store) clearDelta() { s.delta, s.newDelta = nil, nil }

// remove deletes a row; reports whether it was present. The last row moves
// into the freed position, so removal is O(chain length), not O(rows).
func (s *store) remove(r Row) bool {
	h := s.hash(r)
	i := s.find(h, r)
	if i == 0 {
		return false
	}
	s.relink(h, i, s.next[i-1])
	last := int32(len(s.rows))
	if i != last {
		s.relink(s.hash(s.rows[last-1]), last, i)
		s.rows[i-1], s.next[i-1] = s.rows[last-1], s.next[last-1]
	}
	s.rows[last-1] = nil
	s.rows, s.next = s.rows[:last-1], s.next[:last-1]
	s.version++
	return true
}

// contains reports membership.
func (s *store) contains(r Row) bool { return s.find(s.hash(r), r) != 0 }

// snapshot returns cloned rows in canonical order — the public read path.
func (s *store) snapshot() []Row {
	out := make([]Row, len(s.rows))
	for i, r := range s.rows {
		out[i] = r.clone()
	}
	SortRows(out)
	return out
}

// size reports the number of rows.
func (s *store) size() int { return len(s.rows) }

// clear empties the store, keeping the capacity of its rows and index.
func (s *store) clear() {
	if len(s.rows) > 0 {
		clear(s.head)
		clear(s.rows)
		s.rows, s.next = s.rows[:0], s.next[:0]
		s.version++
	}
	s.clearDelta()
}
