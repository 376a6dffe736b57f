package bloom

import (
	"bytes"
	"testing"
)

// stateModule is the module FuzzNodeStateEqual's nodes run: two tables of
// different arity, an input that feeds one of them, and a scratch.
func stateModule(t testing.TB) *Module {
	m := NewModule("state")
	m.Input("in", "k", "n")
	m.Table("pairs", "k", "n")
	m.Table("keys", "k")
	m.Scratch("seen", "k")
	m.Rule("pairs", Instant, Scan("in"))
	m.Rule("seen", Instant, Project(Scan("in"), Col("k")))
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// stateRow maps an op's value onto a row of the table it picks, from a
// domain small enough that two nodes often meet on a set. Keys are letters
// and counts ints, so the text of a row set names the set.
func stateRow(v byte) (table string, r Row) {
	k := S(string(rune('a' + v%4)))
	if v&4 == 0 {
		return "keys", Row{k}
	}
	return "pairs", Row{k, I(int64(v >> 3 % 3))}
}

// checkNodeStateEqual applies ops to two nodes of one module whose stores
// drop the low shift bits of every hash, and after every op holds
// StateEqual, both ways, to its oracle: the nodes have no pending work, and
// their Digests and the AppendRender text of every collection agree.
func checkNodeStateEqual(t testing.TB, shift uint, ops []storeOp) {
	t.Helper()
	m := stateModule(t)
	var nodes [2]*Node
	for i := range nodes {
		n, err := NewNode("n", m)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range n.stores {
			st.hashShift = shift
		}
		nodes[i] = n
	}
	a, b := nodes[0], nodes[1]
	for step, op := range ops {
		// Bit 0 of kind picks the node, or both when bit 1 is set too.
		targets := nodes[op.kind&1 : op.kind&1+1]
		if op.kind&2 != 0 {
			targets = nodes[:]
		}
		table, r := stateRow(op.val)
		for _, n := range targets {
			switch op.kind >> 2 % 5 {
			case 0, 1:
				n.state[table].insert(r)
			case 2:
				n.state[table].remove(r)
			case 3:
				if op.val&0xf0 == 0 {
					n.state[table].clear()
				} else {
					n.state[table].remove(r)
				}
			case 4:
				// Pending work, which the next op of this kind on the node
				// applies.
				if n.Pending() {
					if _, err := n.Tick(); err != nil {
						t.Fatal(err)
					}
				} else if err := n.Deliver("in", Row{r[0], I(int64(op.val % 3))}); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := !a.Pending() && !b.Pending() && a.Digest() == b.Digest()
		for _, c := range m.Collections() {
			want = want && bytes.Equal(a.AppendRender(nil, c.Name), b.AppendRender(nil, c.Name))
		}
		if got := a.StateEqual(b); got != want {
			t.Fatalf("step %d (shift %d): a.StateEqual(b) = %v, want %v; pending %v/%v, digests %s/%s, pairs %s/%s, keys %s/%s",
				step, shift, got, want, a.Pending(), b.Pending(), a.Digest(), b.Digest(),
				a.AppendRender(nil, "pairs"), b.AppendRender(nil, "pairs"), a.AppendRender(nil, "keys"), b.AppendRender(nil, "keys"))
		}
		if got := b.StateEqual(a); got != want {
			t.Fatalf("step %d (shift %d): b.StateEqual(a) = %v, a.StateEqual(b) = %v", step, shift, got, want)
		}
		if got := a.StateEqual(a); got != !a.Pending() {
			t.Fatalf("step %d (shift %d): a.StateEqual(a) = %v with pending work %v", step, shift, got, a.Pending())
		}
	}
}

// FuzzNodeStateEqual holds Node.StateEqual to what it stands for, over
// fuzzer-chosen op streams on two nodes of one module: byte pairs (kind,
// value) that insert, remove and clear rows of either table on one node or
// both, and queue and apply deliveries on one. Each stream runs under the
// full hash, under none of it (every row collides) and under the truncation
// the first byte picks.
func FuzzNodeStateEqual(f *testing.F) {
	// The same rows inserted on each node in another order, then one removed
	// from one node only.
	f.Add([]byte{0, 2, 4, 2, 5, 2, 12, 1, 12, 0, 4, 1, 5, 0, 13, 8, 12})
	// Clears on both, a delivery pending on one node, then applied, then
	// matched on the other by an insert.
	f.Add([]byte{40, 6, 4, 6, 13, 14, 0, 14, 0, 1, 20, 16, 2, 17, 2, 16, 3, 3, 12})
	f.Add([]byte{64, 0, 4, 1, 4, 3, 4, 0, 5, 1, 5, 3, 5, 2, 9, 3, 8, 16, 1, 17, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		ops := make([]storeOp, 0, len(data)/2)
		for i := 1; i+1 < len(data); i += 2 {
			ops = append(ops, storeOp{kind: data[i], val: data[i+1]})
		}
		for _, shift := range []uint{0, 64, uint(data[0]) % 65} {
			checkNodeStateEqual(t, shift, ops)
		}
	})
}
