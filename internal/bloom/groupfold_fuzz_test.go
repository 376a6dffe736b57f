package bloom

import (
	"testing"
)

// regroup is the oracle of the group-by fold: every row of rows grouped
// from scratch through a map, groups in first-seen order, each aggregate
// computed over its group's whole row list, then the having filter.
func regroup(rows []Row, keyIdx []int, aggs []cAgg, having []cPred) []Row {
	var order []string
	members := map[string][]Row{}
	for _, r := range rows {
		k := make(Row, len(keyIdx))
		for i, j := range keyIdx {
			k[i] = r[j]
		}
		key := k.key()
		if _, ok := members[key]; !ok {
			order = append(order, key)
		}
		members[key] = append(members[key], r)
	}
	var out []Row
	for _, key := range order {
		group := members[key]
		nr := Row{}
		for _, j := range keyIdx {
			nr = append(nr, group[0][j])
		}
		for _, a := range aggs {
			switch a.fn {
			case Count:
				nr = append(nr, int64(len(group)))
			case Sum:
				var sum int64
				for _, r := range group {
					v, _ := AsInt(r[a.col])
					sum += v
				}
				nr = append(nr, sum)
			case Min, Max:
				best := group[0][a.col]
				for _, r := range group[1:] {
					c := compareVals(r[a.col], best)
					if (a.fn == Min && c < 0) || (a.fn == Max && c > 0) {
						best = r[a.col]
					}
				}
				nr = append(nr, best)
			}
		}
		keep := true
		for _, p := range having {
			keep = keep && p.op.apply(nr[p.idx], p.cnst)
		}
		if keep {
			out = append(out, nr)
		}
	}
	return out
}

// rethreshold is the oracle of the threshold fold: the key of every group
// of at least atLeast rows, in first-seen order.
func rethreshold(rows []Row, keyIdx []int, atLeast int64) []Row {
	var out []Row
	for _, r := range regroup(rows, keyIdx, []cAgg{{fn: Count, col: -1}}, nil) {
		if r[len(keyIdx)].(int64) >= atLeast {
			out = append(out, r[:len(keyIdx)])
		}
	}
	return out
}

// foldRow maps three op bytes onto a row (key, int, mixed) over a small
// domain, so that rows repeat, groups collect several rows, and Min and Max
// compare ints with strings.
func foldRow(a, b, c byte) Row {
	var mixed Val = S(string(rune('a' + c%6)))
	if c%7 == 0 {
		mixed = I(int64(c % 3))
	}
	return Row{S(string(rune('p' + a%4))), I(int64(b%9) - 4), mixed}
}

// FuzzGroupFold holds the group-by and threshold operators over a plain
// scan, which fold only the rows appended since their last evaluation, to a
// regroup of the store's every row. Each op appends a row, removes one
// (which moves the last row into the hole), clears the store, releases the
// store or the operators as Node.Release does, or evaluates some of the
// operators, so that each folds from another prefix. The first byte picks
// a hash truncation that makes groups share probe chains.
func FuzzGroupFold(f *testing.F) {
	f.Add(byte(0), []byte{0, 1, 2, 3, 0, 4, 5, 6, 7, 0, 9, 9, 9, 7})
	f.Add(byte(1), []byte{0, 1, 1, 1, 0, 2, 2, 2, 7, 1, 0, 7, 0, 3, 3, 3, 7, 3, 7})
	f.Add(byte(2), []byte{0, 4, 4, 4, 0, 5, 5, 5, 0, 6, 6, 6, 7, 2, 0, 8, 1, 2, 7})
	f.Add(byte(1), []byte{0, 1, 2, 3, 7, 4, 0, 5, 6, 7, 5, 0, 8, 9, 10, 7, 6, 7})
	// Fold, remove the first row, fold, append, fold: the remove must
	// force a regroup.
	f.Add(byte(0), []byte{0, 1, 1, 10, 2, 2, 20, 3, 3, 0, 4, 4, 7, 4, 0, 7, 4, 1, 10, 5, 5, 7})
	f.Fuzz(func(t *testing.T, shiftSel byte, ops []byte) {
		if len(ops) > 3000 {
			ops = ops[:3000]
		}
		shift := []uint{0, 61, 64}[shiftSel%3]
		st := &store{hashShift: shift}
		scan := &cScan{st: st}
		gbs := []*cGroupBy{
			{keyIdx: []int{0}, aggs: []cAgg{{Count, -1}, {Sum, 1}, {Min, 1}, {Max, 2}},
				having: []cPred{{idx: 1, op: GE, cnst: I(2)}}},
			{keyIdx: []int{0, 2}, aggs: []cAgg{{Max, 1}, {Count, -1}, {Min, 2}},
				having: []cPred{{idx: 2, op: GT, cnst: I(-2)}}},
			{keyIdx: []int{1}, aggs: []cAgg{{Count, -1}}},
		}
		ths := []*cThreshold{
			{keyIdx: []int{0}, atLeast: 3},
			{keyIdx: []int{0, 1}, atLeast: 2},
		}
		arm := func() {
			for _, e := range gbs {
				e.in, e.groups.src, e.groups.hashShift = scan, st, shift
				e.folds = false
				for _, a := range e.aggs {
					e.folds = e.folds || a.fn != Count
				}
			}
			for _, e := range ths {
				e.in, e.groups.src, e.groups.hashShift = scan, st, shift
			}
		}
		arm()
		check := func(step, which int) {
			for i, e := range gbs {
				if which >= 0 && i != which%len(gbs) {
					continue
				}
				got, want := e.full(nil), regroup(st.rows, e.keyIdx, e.aggs, e.having)
				sameRowLists(t, step, "group-by", i, got, want)
			}
			for i, e := range ths {
				if which >= 0 && i != which%len(ths) {
					continue
				}
				got, want := e.full(nil), rethreshold(st.rows, e.keyIdx, e.atLeast)
				sameRowLists(t, step, "threshold", i, got, want)
			}
		}
		for step := 0; step < len(ops); step++ {
			next := func() byte {
				if step+1 < len(ops) {
					step++
					return ops[step]
				}
				return 0
			}
			switch op := ops[step]; op % 10 {
			case 0, 1, 2, 3:
				st.insert(foldRow(op/10, next(), next()))
			case 4:
				if len(st.rows) > 0 {
					st.remove(st.rows[int(next())%len(st.rows)])
				}
			case 5:
				st.clear()
			case 6:
				st.release()
				st.hashShift = shift
			case 7:
				check(step, -1)
			case 8:
				check(step, int(next()))
			case 9:
				// Node.Release: every store and every operator.
				st.release()
				st.hashShift = shift
				for _, e := range gbs {
					e.release()
				}
				for _, e := range ths {
					e.release()
				}
				arm()
			}
		}
		check(len(ops), -1)
	})
}

func sameRowLists(t *testing.T, step int, what string, i int, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s %d gives %d rows %v, the regroup %d %v", step, what, i, len(got), got, len(want), want)
	}
	for k := range got {
		if !rowsSame(got[k], want[k]) {
			t.Fatalf("step %d: %s %d row %d is %v, the regroup's %v", step, what, i, k, got[k], want[k])
		}
	}
}
