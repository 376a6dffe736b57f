package bloom

import (
	"fmt"
	"math/bits"
)

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

// flatIndex is the hash index of the store and of the group index: an
// open-addressed table of 1-based positions into the owner's flat slice (0
// marks an empty slot), probed linearly from a hash's home slot, with
// hashes[p-1] holding the hash of the element at position p so that neither
// growth nor removal rehashes a row. The table is at most half full, so every
// probe ends at an empty slot, and a removal closes its gap by backward shift
// instead of leaving a tombstone. Owners probe it themselves (equality is
// theirs to define):
//
//	for i := ix.home(h); ; i = ix.next(i) { p := ix.slots[i]; ... }
type flatIndex struct {
	slots  []int32
	hashes []uint64
	// shift maps a hash onto len(slots) slots: 64 minus its log2.
	shift uint
}

// home is the first slot of h's probe sequence: the top bits of h times
// 2^64/φ, so that hashes differing only in high bits still spread.
func (ix *flatIndex) home(h uint64) int { return int((h * 0x9e3779b97f4a7c15) >> ix.shift) }

// next is the slot after i.
func (ix *flatIndex) next(i int) int { return (i + 1) & (len(ix.slots) - 1) }

// makeRoom makes room for one more element: when it would fill the table
// past half, the table doubles and every position is re-placed from its
// recorded hash.
func (ix *flatIndex) makeRoom() {
	if 2*(len(ix.hashes)+1) <= len(ix.slots) {
		return
	}
	ix.slots = make([]int32, max(8, 2*len(ix.slots)))
	ix.shift = uint(64 - bits.TrailingZeros(uint(len(ix.slots))))
	for p, h := range ix.hashes {
		i := ix.home(h)
		for ix.slots[i] != 0 {
			i = ix.next(i)
		}
		ix.slots[i] = int32(p + 1)
	}
}

// add records, in the empty slot i where h's probe ended, the element the
// owner just appended.
func (ix *flatIndex) add(i int, h uint64) {
	ix.hashes = append(ix.hashes, h)
	ix.slots[i] = int32(len(ix.hashes))
}

// remove forgets the element at position p, found in slot i, and gives
// position p to the last element: the owner makes the same swap in its
// slice.
func (ix *flatIndex) remove(i int, p int32) {
	mask := len(ix.slots) - 1
	// Backward shift: an entry later in the cluster moves into the gap when
	// the gap lies on its probe sequence, i.e. between its home and it.
	for j := ix.next(i); ix.slots[j] != 0; j = ix.next(j) {
		q := ix.slots[j]
		if (j-ix.home(ix.hashes[q-1]))&mask >= (j-i)&mask {
			ix.slots[i] = q
			i = j
		}
	}
	ix.slots[i] = 0
	last := int32(len(ix.hashes))
	if p != last {
		h := ix.hashes[last-1]
		j := ix.home(h)
		for ix.slots[j] != last {
			j = ix.next(j)
		}
		ix.slots[j], ix.hashes[p-1] = p, h
	}
	ix.hashes = ix.hashes[:last-1]
}

// reset empties the index, keeping its capacity.
func (ix *flatIndex) reset() {
	clear(ix.slots)
	ix.hashes = ix.hashes[:0]
}

// store is the runtime contents of a collection: a set of rows held flat in
// insertion order, indexed by FNV hash in a flatIndex with element-wise
// equality resolving collisions, so an insert allocates nothing per row. Rows
// held by a store are immutable by convention: the evaluator never mutates a
// row after construction, and neither may the caller that handed it to
// Deliver, so no insert clones. Cloning happens only on the way out
// (snapshot/Rows/Emission). The zero store is empty and ready; a bare one is
// the evaluator's transient row set (projection and emission dedup).
type store struct {
	// decl is the collection the store holds (nil for a bare store).
	decl *Collection
	// rows is in insertion order, except that remove fills the hole it
	// leaves with the last row — a function of the operations applied,
	// never of map iteration, so scans are deterministic.
	rows []Row
	// index holds rows' positions; index.hashes runs parallel to rows.
	index flatIndex
	// hashShift discards low hash bits; tests raise it to force collisions.
	hashShift uint
	// version counts mutations (it never repeats), so two reads of the
	// store under equal versions saw identical contents. Rule memoization
	// keys on it.
	version uint64
	// delta holds the rows newly inserted as of the last semi-naive
	// rotation; newDelta accumulates inserts since. The two buffers swap at
	// every rotation and keep their capacity, which is safe because no
	// reader holds delta across one: cScan.delta copies it out, never lends
	// it. Node.Tick owns the rotation discipline.
	delta    []Row
	newDelta []Row
	// pendingIns/pendingDel apply at the start of the next tick (<+, <-,
	// and network deliveries); outbox gathers a tick's async (<~) merges
	// until the tick emits them.
	pendingIns, pendingDel, outbox []Row
}

// hash is the row's index hash.
func (s *store) hash(r Row) uint64 { return r.hash() >> s.hashShift }

// find returns where the probe for r under hash h ends: its slot, and r's
// 1-based position in rows, or 0 when r is absent (the slot is then the
// empty one an insert takes; -1 before the table exists).
func (s *store) find(h uint64, r Row) (int, int32) {
	ix := &s.index
	if len(ix.slots) == 0 {
		return -1, 0
	}
	for i := ix.home(h); ; i = ix.next(i) {
		p := ix.slots[i]
		if p == 0 || ix.hashes[p-1] == h && rowsSame(s.rows[p-1], r) {
			return i, p
		}
	}
}

// insert adds a row; reports whether it was new. The row is aliased, not
// cloned — callers must not mutate it afterwards.
func (s *store) insert(r Row) bool {
	h := s.hash(r)
	s.index.makeRoom()
	i, p := s.find(h, r)
	if p != 0 {
		return false
	}
	s.rows = append(s.rows, r)
	s.index.add(i, h)
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
// The old delta's buffer, its references cleared, collects the next
// generation.
func (s *store) rotate() bool {
	clear(s.delta)
	s.delta, s.newDelta = s.newDelta, s.delta[:0]
	return len(s.delta) > 0
}

// clearDelta drops both delta generations, keeping their buffers.
func (s *store) clearDelta() {
	clear(s.delta)
	clear(s.newDelta)
	s.delta, s.newDelta = s.delta[:0], s.newDelta[:0]
}

// remove deletes a row; reports whether it was present. The last row moves
// into the freed position, so removal costs a probe, not a pass over rows.
func (s *store) remove(r Row) bool {
	i, p := s.find(s.hash(r), r)
	if p == 0 {
		return false
	}
	s.index.remove(i, p)
	last := len(s.rows) - 1
	s.rows[p-1] = s.rows[last]
	s.rows[last] = nil
	s.rows = s.rows[:last]
	s.version++
	return true
}

// contains reports membership.
func (s *store) contains(r Row) bool {
	_, p := s.find(s.hash(r), r)
	return p != 0
}

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
		s.index.reset()
		clear(s.rows)
		s.rows = s.rows[:0]
		s.version++
	}
	s.clearDelta()
}

// release empties the store for its node's next run, dropping every row it
// references, the queues' spare capacity included, and moves its version on.
func (s *store) release() {
	s.clear()
	clear(s.pendingIns[:cap(s.pendingIns)])
	clear(s.pendingDel[:cap(s.pendingDel)])
	clear(s.outbox[:cap(s.outbox)])
	s.pendingIns, s.pendingDel, s.outbox = s.pendingIns[:0], s.pendingDel[:0], s.outbox[:0]
	s.hashShift = 0
	s.version++
}
