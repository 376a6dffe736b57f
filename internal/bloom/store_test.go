package bloom

import (
	"fmt"
	"math/rand"
	"testing"
)

// storeModel is the reference the flat store is held to: a map keyed by
// Row.key().
type storeModel map[string]Row

// storeOp is one step of an op stream: kind selects the operation, val the
// row it applies to (drawn from a small domain so inserts, removes and
// lookups meet).
type storeOp struct{ kind, val byte }

// opRow maps an op's value onto a row; the domain mixes ints, strings and
// arities so rowsSame has to tell apart rows that share a hash chain.
func opRow(v byte) Row {
	switch v % 3 {
	case 0:
		return Row{I(int64(v / 3))}
	case 1:
		return Row{S(fmt.Sprint(v / 3))}
	default:
		return Row{I(int64(v / 3)), S("x")}
	}
}

// checkStoreOps applies ops to a store and to the model, comparing every
// return value, and after every step the size, the canonical snapshot, the
// internal row order's contents and the index's integrity. hashShift > 0
// truncates the hash so chains grow long and swap-remove has links to patch.
func checkStoreOps(t testing.TB, hashShift uint, ops []storeOp) {
	t.Helper()
	st := newStore()
	st.hashShift = hashShift
	model := storeModel{}
	var wantDelta []Row
	for step, op := range ops {
		r := opRow(op.val)
		_, had := model[r.key()]
		version := st.version
		mutated := false
		switch op.kind % 6 {
		case 0:
			if got := st.insert(r); got == had {
				t.Fatalf("step %d: insert(%v) = %v, model had it: %v", step, r, got, had)
			}
			model[r.key()], mutated = r, !had
		case 1:
			if got := st.insertDelta(r); got == had {
				t.Fatalf("step %d: insertDelta(%v) = %v, model had it: %v", step, r, got, had)
			}
			if !had {
				wantDelta = append(wantDelta, r)
			}
			model[r.key()], mutated = r, !had
		case 2:
			if got := st.remove(r); got != had {
				t.Fatalf("step %d: remove(%v) = %v, model had it: %v", step, r, got, had)
			}
			delete(model, r.key())
			mutated = had
		case 3:
			if got := st.contains(r); got != had {
				t.Fatalf("step %d: contains(%v) = %v, model: %v", step, r, got, had)
			}
		case 4:
			if op.val%8 == 0 { // rare enough for the store to fill between clears
				st.clear()
				mutated = len(model) > 0
				model, wantDelta = storeModel{}, nil
			}
		case 5:
			st.rotate()
			if !RowsEqual(st.delta, wantDelta) {
				t.Fatalf("step %d: rotated delta %v, want %v", step, st.delta, wantDelta)
			}
			wantDelta = nil
		}
		if (st.version != version) != mutated {
			t.Fatalf("step %d: version moved %v, contents changed %v", step, st.version != version, mutated)
		}
		checkStoreAgainst(t, step, st, model)
	}
}

func checkStoreAgainst(t testing.TB, step int, st *store, model storeModel) {
	t.Helper()
	if st.size() != len(model) {
		t.Fatalf("step %d: size %d, model %d", step, st.size(), len(model))
	}
	want := make([]Row, 0, len(model))
	for _, r := range model {
		want = append(want, r)
	}
	SortRows(want)
	got := st.snapshot()
	if len(got) != len(want) {
		t.Fatalf("step %d: snapshot %v, want %v", step, got, want)
	}
	for i := range got {
		if got[i].key() != want[i].key() {
			t.Fatalf("step %d: snapshot %v, want %v", step, got, want)
		}
	}
	if scan := (&cScan{st: st}).full(nil); !RowsEqual(scan, want) {
		t.Fatalf("step %d: scan %v, want %v", step, scan, want)
	}
	// Every row is reachable from its own hash's chain, and the chains hold
	// nothing else: heads and links stay inside rows, no chain is empty.
	if len(st.next) != len(st.rows) {
		t.Fatalf("step %d: %d links for %d rows", step, len(st.next), len(st.rows))
	}
	reached := 0
	for h, i := range st.head {
		if i == 0 {
			t.Fatalf("step %d: empty chain left under hash %x", step, h)
		}
		for ; i != 0; i = st.next[i-1] {
			if int(i) > len(st.rows) || st.hash(st.rows[i-1]) != h {
				t.Fatalf("step %d: chain of %x reaches position %d", step, h, i)
			}
			if reached++; reached > len(st.rows) {
				t.Fatalf("step %d: chains loop", step)
			}
		}
	}
	if reached != len(st.rows) {
		t.Fatalf("step %d: chains reach %d of %d rows", step, reached, len(st.rows))
	}
}

// TestStoreMatchesModel drives random op streams through the flat store and
// the map model — with the full hash, and with all but the top few bits
// dropped so nearly every row collides.
func TestStoreMatchesModel(t *testing.T) {
	for _, shift := range []uint{0, 61, 63, 64} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			ops := make([]storeOp, 400)
			for i := range ops {
				ops[i] = storeOp{kind: byte(rng.Intn(256)), val: byte(rng.Intn(48))}
			}
			checkStoreOps(t, shift, ops)
		}
	}
}

// FuzzStoreOps is the same check over fuzzer-chosen op streams: byte pairs
// (kind, value), the first byte picking how much of the hash survives.
func FuzzStoreOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 4, 0, 7, 2, 1, 2, 4, 5, 0})
	f.Add([]byte{63, 0, 0, 0, 3, 0, 6, 0, 9, 2, 3, 2, 0, 2, 9, 1, 12, 5, 0, 4, 0})
	f.Add([]byte{64, 1, 1, 1, 2, 1, 3, 5, 0, 2, 2, 1, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := make([]storeOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, storeOp{kind: data[i], val: data[i+1]})
		}
		checkStoreOps(t, uint(data[0])%65, ops)
	})
}

// TestEncodingsPinned holds the fmt-free encoders to the bytes their
// fmt-based predecessors produced (values recorded from the commit before
// the flat store): Row.key, Row.String, and Node.Digest over a fixed node
// whose tables sort differently by key than by value (i10 before i9) and
// hold strings, ints and a rule constant of another type.
func TestEncodingsPinned(t *testing.T) {
	r := Row{I(-3), S("a|b"), []byte("x"), S("")}
	if got, want := r.key(), "i-3|s3:a|b|o[120]|s0:|"; got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
	if got, want := r.String(), "(-3, a|b, [120], )"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}

	m := NewModule("pinned")
	m.Input("in", "k", "n")
	m.Table("log", "k", "n")
	m.Table("tagged", "k", "tag")
	m.Scratch("tmp", "k", "n")
	m.Rule("log", Instant, Scan("in"))
	m.Rule("tmp", Instant, Scan("log"))
	m.Rule("tagged", Instant, Project(Scan("in"), Col("k"), ConstCol("tag", 2.5)))
	n, err := NewNode("pinned", m)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := n.Digest(), pinnedEmptyDigest; got != want {
		t.Errorf("empty digest = %s, want %s", got, want)
	}
	for i := int64(12); i >= 7; i-- {
		if err := n.Deliver("in", Row{S(fmt.Sprintf("k%d", i%3)), I(i)}, Row{S(""), I(-i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := n.Digest(), pinnedDigest; got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

const (
	pinnedEmptyDigest = "bd2a6d6918a571f1"
	pinnedDigest      = "79902a5216335539"
)
