package bloom

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file differentially tests the compiled semi-naive evaluator in
// node.go/compile.go against a reference implementation of the original
// naive evaluator (string-keyed stores, interpretive Expr.eval, re-run every
// rule until nothing changes). Randomized modules and workloads must produce
// identical fixpoints, emissions, and pending-work status on every tick.

// refStore mirrors the pre-semi-naive store: string row keys, clone on
// insert and snapshot.
type refStore struct{ rows map[string]Row }

func newRefStore() *refStore { return &refStore{rows: map[string]Row{}} }

func (s *refStore) insert(r Row) bool {
	k := r.key()
	if _, ok := s.rows[k]; ok {
		return false
	}
	s.rows[k] = r.clone()
	return true
}

func (s *refStore) remove(r Row) { delete(s.rows, r.key()) }

func (s *refStore) snapshot() []Row {
	keys := make([]string, 0, len(s.rows))
	for k := range s.rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Row, len(keys))
	for i, k := range keys {
		out[i] = s.rows[k].clone()
	}
	return out
}

// refNode replicates the original naive Node.Tick semantics.
type refNode struct {
	mod        *Module
	state      map[string]*refStore
	strata     map[string]int
	pendingIns map[string][]Row
	pendingDel map[string][]Row
}

func newRefNode(t *testing.T, mod *Module) *refNode {
	t.Helper()
	strata, _, err := stratify(mod)
	if err != nil {
		t.Fatal(err)
	}
	n := &refNode{
		mod:        mod,
		state:      map[string]*refStore{},
		strata:     strata,
		pendingIns: map[string][]Row{},
		pendingDel: map[string][]Row{},
	}
	for _, c := range mod.Collections() {
		n.state[c.Name] = newRefStore()
	}
	return n
}

func (n *refNode) rowsOf(name string) []Row { return n.state[name].snapshot() }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (n *refNode) deliver(coll string, rows ...Row) {
	for _, r := range rows {
		n.pendingIns[coll] = append(n.pendingIns[coll], r.clone())
	}
}

func (n *refNode) pending() bool { return len(n.pendingIns) > 0 || len(n.pendingDel) > 0 }

// tick is the original naive algorithm: apply pending work, run every
// instant rule of each stratum repeatedly until no insert lands, evaluate
// the remaining rules once, emit, clear transients. Emissions are returned
// as collection → all emitted rows (async merges and output contents).
func (n *refNode) tick() (map[string][]Row, error) {
	for _, coll := range sortedKeys(n.pendingIns) {
		for _, r := range n.pendingIns[coll] {
			n.state[coll].insert(r)
		}
	}
	n.pendingIns = map[string][]Row{}
	for _, coll := range sortedKeys(n.pendingDel) {
		for _, r := range n.pendingDel[coll] {
			n.state[coll].remove(r)
		}
	}
	n.pendingDel = map[string][]Row{}

	maxStratum := 0
	for _, s := range n.strata {
		if s > maxStratum {
			maxStratum = s
		}
	}
	for s := 0; s <= maxStratum; s++ {
		for {
			changed := false
			for _, r := range n.mod.Rules() {
				if r.Op != Instant || n.strata[r.Head] != s {
					continue
				}
				rows, err := r.Body.eval(n.mod, n)
				if err != nil {
					return nil, err
				}
				for _, row := range rows {
					if n.state[r.Head].insert(row) {
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
	}

	emitted := map[string][]Row{}
	for _, r := range n.mod.Rules() {
		if r.Op == Instant {
			continue
		}
		rows, err := r.Body.eval(n.mod, n)
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			continue
		}
		switch r.Op {
		case Deferred:
			n.pendingIns[r.Head] = append(n.pendingIns[r.Head], rows...)
		case Delete:
			n.pendingDel[r.Head] = append(n.pendingDel[r.Head], rows...)
		case Async:
			emitted[r.Head] = append(emitted[r.Head], rows...)
		}
	}
	for coll, rows := range emitted {
		emitted[coll] = dedup(rows)
	}
	for _, out := range n.mod.Outputs() {
		if rows := n.state[out].snapshot(); len(rows) > 0 {
			emitted[out] = append(emitted[out], rows...)
		}
	}
	for _, c := range n.mod.Collections() {
		if c.Kind.Transient() {
			n.state[c.Name].rows = map[string]Row{}
		}
	}
	return emitted, nil
}

// forceGroupCollisions drops all but the top bits of every group index's
// hash under the node's rules, as TestStoreMatchesModel does to the store's:
// groups then share chains and only the key comparison tells them apart.
func forceGroupCollisions(n *Node, hashShift uint) {
	var walk func(e compiledExpr)
	walk = func(e compiledExpr) {
		switch x := e.(type) {
		case *cSelect:
			walk(x.in)
		case *cProject:
			walk(x.in)
		case *cJoin:
			walk(x.l)
			walk(x.r)
		case *cAntiJoin:
			walk(x.l)
			walk(x.r)
		case *cGroupBy:
			x.groups.hashShift = hashShift
			walk(x.in)
		case *cThreshold:
			x.groups.hashShift = hashShift
			walk(x.in)
		}
	}
	for _, rules := range append(n.prog.instant, n.prog.rest) {
		for _, cr := range rules {
			walk(cr.body)
		}
	}
}

func sortedCopy(rows []Row) []Row {
	out := make([]Row, len(rows))
	for i, r := range rows {
		out[i] = r.clone()
	}
	SortRows(out)
	return out
}

// TestSemiNaiveMatchesNaiveReference is the differential/property test: for
// 150 seeds, a random module is driven by a random workload under both
// evaluators, comparing per-tick emissions, pending status, and the full
// contents of every collection. Every module carries aliasRules; every
// third tick delivers nothing, so that memoized rules are re-read across
// the deletes, deferred inserts and transient clears of the ticks around
// it; and two seeds in three run with the group index's hash truncated.
func TestSemiNaiveMatchesNaiveReference(t *testing.T) {
	const seeds = 150
	built := 0
	for seed := int64(0); seed < seeds; seed++ {
		g := &modGen{r: rand.New(rand.NewSource(seed))}
		var mod *Module
		var node *Node
		for attempt := 0; attempt < 25; attempt++ {
			m := g.module(seed)
			n, err := NewNode("sn", m)
			if err != nil {
				continue // unstratifiable or invalid draw; redraw
			}
			mod, node = m, n
			break
		}
		if mod == nil {
			t.Fatalf("seed %d: no valid module in 25 attempts", seed)
		}
		built++
		ref := newRefNode(t, mod)
		forceGroupCollisions(node, []uint{0, 61, 64}[seed%3])

		deliverable := []struct {
			name  string
			arity int
		}{{"in1", 2}, {"in2", 3}, {"t1", 2}, {"ch1", 2}}
		for tick := 0; tick < 9; tick++ {
			for i := 0; tick%3 != 2 && i < g.r.Intn(6); i++ {
				d := deliverable[g.r.Intn(len(deliverable))]
				row := g.row(d.arity)
				if err := node.Deliver(d.name, row); err != nil {
					t.Fatalf("seed %d tick %d: deliver: %v", seed, tick, err)
				}
				ref.deliver(d.name, row)
			}

			em, err := node.Tick()
			if err != nil {
				t.Fatalf("seed %d tick %d: seminaive tick: %v", seed, tick, err)
			}
			refEm, err := ref.tick()
			if err != nil {
				t.Fatalf("seed %d tick %d: reference tick: %v", seed, tick, err)
			}

			got := map[string][]Row{}
			for _, e := range em {
				got[e.Collection] = append(got[e.Collection], e.Rows...)
			}
			if len(got) != len(refEm) {
				t.Fatalf("seed %d tick %d: emitted collections %v vs reference %v", seed, tick, got, refEm)
			}
			for coll, rows := range refEm {
				if !reflect.DeepEqual(sortedCopy(got[coll]), sortedCopy(rows)) {
					t.Fatalf("seed %d tick %d: emission %q mismatch:\n seminaive: %v\n reference: %v",
						seed, tick, coll, sortedCopy(got[coll]), sortedCopy(rows))
				}
			}

			for _, c := range mod.Collections() {
				want := ref.state[c.Name].snapshot()
				if gotRows := node.Rows(c.Name); !reflect.DeepEqual(gotRows, want) {
					t.Fatalf("seed %d tick %d: collection %q mismatch:\n seminaive: %v\n reference: %v",
						seed, tick, c.Name, gotRows, want)
				}
			}
			if node.Pending() != ref.pending() {
				t.Fatalf("seed %d tick %d: pending %v vs reference %v", seed, tick, node.Pending(), ref.pending())
			}
		}
	}
	if built != seeds {
		t.Fatalf("built %d/%d modules", built, seeds)
	}
}

// deleteModule generates a module whose rule mix is skewed toward the
// deferred (<+) and delete (<-) operators, with every delete rule derived
// from its own head table (a selective self-scan), so deletions actually
// intersect current contents instead of projecting random constants that
// almost never match a stored row. Deferred rules feed rows back across
// ticks, racing re-derivation against deletion.
func (g *modGen) deleteModule(seed int64) *Module {
	m := NewModule(fmt.Sprintf("del%d", seed))
	m.Input("in1", "i1a", "i1b")
	m.Input("in2", "i2a", "i2b", "i2c")
	m.Table("t1", "t1a", "t1b")
	m.Table("t2", "t2a", "t2b", "t2c")
	m.Scratch("s1", "s1a", "s1b")
	m.Channel("ch1", "cha", "chb")
	m.Output("o1", "oa", "ob")
	colls := m.Collections()

	// selfSubset builds a body selecting a data-dependent subset of the
	// head table itself, projected back onto its own schema.
	selfSubset := func(head *Collection) Expr {
		cols := make([]ColSpec, len(head.Schema))
		out := make(Schema, len(head.Schema))
		for i, col := range head.Schema {
			out[i] = g.fresh()
			cols[i] = ColAs(col, out[i])
		}
		e := Project(Scan(head.Name), cols...)
		sel := Select(e, Where(out[g.r.Intn(len(out))], CmpOp(g.r.Intn(6)), g.val()))
		back := make([]ColSpec, len(head.Schema))
		for i, col := range head.Schema {
			back[i] = ColAs(out[i], col)
		}
		return Project(sel, back...)
	}

	nRules := 6 + g.r.Intn(4)
	for i := 0; i < nRules; i++ {
		switch p := g.r.Intn(10); {
		case p < 3: // instant feeder
			head := m.Collection([]string{"t1", "t2", "s1"}[g.r.Intn(3)])
			body, s := g.expr(m, colls, 1+g.r.Intn(2))
			m.NamedRule(fmt.Sprintf("r%d", i), head.Name, Instant, g.adapt(body, s, head))
		case p < 6: // delete a live subset of a table
			head := m.Collection([]string{"t1", "t2"}[g.r.Intn(2)])
			m.NamedRule(fmt.Sprintf("r%d", i), head.Name, Delete, selfSubset(head))
		case p < 9: // deferred feedback
			head := m.Collection([]string{"t1", "t2"}[g.r.Intn(2)])
			body, s := g.expr(m, colls, 1+g.r.Intn(2))
			m.NamedRule(fmt.Sprintf("r%d", i), head.Name, Deferred, g.adapt(body, s, head))
		default: // async observer
			head := m.Collection([]string{"ch1", "o1"}[g.r.Intn(2)])
			body, s := g.expr(m, colls, 1)
			m.NamedRule(fmt.Sprintf("r%d", i), head.Name, Async, g.adapt(body, s, head))
		}
	}
	return m
}

// TestSemiNaiveDeleteDeferredWorkloads extends the differential coverage
// to the delete and deferred queues: 120 seeds of delete/deferred-heavy
// modules run for 8 ticks (enough for feedback chains to drain) with rows
// delivered straight into the tables that delete rules target, comparing
// the compiled semi-naive node against the naive reference on every tick.
func TestSemiNaiveDeleteDeferredWorkloads(t *testing.T) {
	const seeds = 120
	built := 0
	deletesFired := 0
	for seed := int64(0); seed < seeds; seed++ {
		g := &modGen{r: rand.New(rand.NewSource(1000 + seed))}
		var mod *Module
		var node *Node
		for attempt := 0; attempt < 25; attempt++ {
			m := g.deleteModule(seed)
			n, err := NewNode("sn", m)
			if err != nil {
				continue
			}
			mod, node = m, n
			break
		}
		if mod == nil {
			t.Fatalf("seed %d: no valid module in 25 attempts", seed)
		}
		built++
		ref := newRefNode(t, mod)

		deliverable := []struct {
			name  string
			arity int
		}{{"in1", 2}, {"in2", 3}, {"t1", 2}, {"t2", 3}, {"ch1", 2}}
		for tick := 0; tick < 8; tick++ {
			for i := 0; i < 1+g.r.Intn(6); i++ {
				d := deliverable[g.r.Intn(len(deliverable))]
				row := g.row(d.arity)
				if err := node.Deliver(d.name, row); err != nil {
					t.Fatalf("seed %d tick %d: deliver: %v", seed, tick, err)
				}
				ref.deliver(d.name, row)
			}

			before := node.Size("t1") + node.Size("t2")
			em, err := node.Tick()
			if err != nil {
				t.Fatalf("seed %d tick %d: seminaive tick: %v", seed, tick, err)
			}
			refEm, err := ref.tick()
			if err != nil {
				t.Fatalf("seed %d tick %d: reference tick: %v", seed, tick, err)
			}
			if node.Size("t1")+node.Size("t2") < before {
				deletesFired++
			}

			got := map[string][]Row{}
			for _, e := range em {
				got[e.Collection] = append(got[e.Collection], e.Rows...)
			}
			if len(got) != len(refEm) {
				t.Fatalf("seed %d tick %d: emitted collections %v vs reference %v", seed, tick, got, refEm)
			}
			for coll, rows := range refEm {
				if !reflect.DeepEqual(sortedCopy(got[coll]), sortedCopy(rows)) {
					t.Fatalf("seed %d tick %d: emission %q mismatch:\n seminaive: %v\n reference: %v",
						seed, tick, coll, sortedCopy(got[coll]), sortedCopy(rows))
				}
			}
			for _, c := range mod.Collections() {
				want := ref.state[c.Name].snapshot()
				if gotRows := node.Rows(c.Name); !reflect.DeepEqual(gotRows, want) {
					t.Fatalf("seed %d tick %d: collection %q mismatch:\n seminaive: %v\n reference: %v",
						seed, tick, c.Name, gotRows, want)
				}
			}
			if node.Pending() != ref.pending() {
				t.Fatalf("seed %d tick %d: pending %v vs reference %v", seed, tick, node.Pending(), ref.pending())
			}
		}
	}
	if built != seeds {
		t.Fatalf("built %d/%d modules", built, seeds)
	}
	// The whole point of this generator: deletions must actually shrink
	// table state somewhere in the sweep.
	if deletesFired < seeds/10 {
		t.Fatalf("net deletions observed in only %d runs of %d — generator not exercising delete queues", deletesFired, seeds)
	}
}

// TestSemiNaiveDeferredDeleteChain is the directed companion: a deferred
// rule re-derives what a delete rule removes, so the two pending queues
// interleave across ticks; a counter stratum watches convergence. The
// compiled node must match the reference at every tick.
func TestSemiNaiveDeferredDeleteChain(t *testing.T) {
	build := func() *Module {
		m := NewModule("defer-del")
		m.Input("in", "k", "v")
		m.Table("live", "k", "v")
		m.Table("tomb", "k", "v")
		m.Scratch("sizes", "k", "cnt")
		m.Output("o1", "k", "cnt")
		m.Rule("live", Instant, Scan("in"))
		// Everything marked dead leaves live next tick…
		m.Rule("live", Delete, Scan("tomb"))
		// …but half of it is resurrected the tick after.
		m.Rule("live", Deferred,
			Select(Scan("tomb"), Where("v", EQ, S("keep"))))
		// Rows whose value is "drop" get entombed (one tick later).
		m.Rule("tomb", Deferred,
			Select(Scan("live"), Where("v", EQ, S("drop"))))
		m.Rule("sizes", Instant,
			GroupBy(Scan("live"), []string{"k"}, Agg{Func: Count, As: "cnt"}))
		m.Rule("o1", Instant, Scan("sizes"))
		return m
	}
	mod := build()
	n, err := NewNode("n", mod)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNode(t, mod)

	step := func(tick int, rows ...Row) {
		t.Helper()
		if len(rows) > 0 {
			if err := n.Deliver("in", rows...); err != nil {
				t.Fatal(err)
			}
			ref.deliver("in", rows...)
		}
		em, err := n.Tick()
		if err != nil {
			t.Fatal(err)
		}
		refEm, err := ref.tick()
		if err != nil {
			t.Fatal(err)
		}
		got := map[string][]Row{}
		for _, e := range em {
			got[e.Collection] = append(got[e.Collection], e.Rows...)
		}
		for coll, rows := range refEm {
			if !reflect.DeepEqual(sortedCopy(got[coll]), sortedCopy(rows)) {
				t.Fatalf("tick %d: emission %q mismatch:\n seminaive: %v\n reference: %v",
					tick, coll, sortedCopy(got[coll]), sortedCopy(rows))
			}
		}
		for _, c := range mod.Collections() {
			if got, want := n.Rows(c.Name), ref.state[c.Name].snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("tick %d: collection %q: seminaive %v vs reference %v", tick, c.Name, got, want)
			}
		}
	}

	step(0,
		Row{S("a"), S("keep")}, Row{S("a"), S("drop")},
		Row{S("b"), S("drop")}, Row{S("c"), S("stay")})
	for tick := 1; tick <= 5; tick++ {
		step(tick)
	}
	// Fixpoint: "drop" rows oscillate into tombs and are not resurrected
	// (only "keep" values are), so live ends with the keep/stay rows.
	want := []Row{{S("a"), S("keep")}, {S("c"), S("stay")}}
	if got := n.Rows("live"); !reflect.DeepEqual(got, want) {
		t.Fatalf("final live = %v, want %v", got, want)
	}
}

// TestSemiNaiveRecursiveAntiJoin pins the antijoin delta path (and its
// right-side cache invalidation) on a recursive rule whose negative side
// changes between ticks: path extension may only pass through unblocked
// intermediate nodes, and the blocked set grows at the second tick. The
// semi-naive node must match the naive reference on every tick.
func TestSemiNaiveRecursiveAntiJoin(t *testing.T) {
	build := func() *Module {
		m := NewModule("blocked-tc")
		m.Input("edges", "src", "dst")
		m.Input("blocks", "m")
		m.Table("edge", "src", "dst")
		m.Table("blocked", "m")
		m.Table("path", "src", "dst")
		m.Rule("edge", Instant, Scan("edges"))
		m.Rule("blocked", Instant, Scan("blocks"))
		m.Rule("path", Instant, Scan("edge"))
		m.Rule("path", Instant,
			Project(
				Join(
					Project(AntiJoin(Scan("path"), Scan("blocked"), [2]string{"dst", "m"}),
						Col("src"), ColAs("dst", "mid")),
					Scan("edge"), [2]string{"mid", "src"}),
				Col("src"), Col("dst")))
		return m
	}
	mod := build()
	n, err := NewNode("n", mod)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefNode(t, mod)

	deliver := func(coll string, rows ...Row) {
		t.Helper()
		if err := n.Deliver(coll, rows...); err != nil {
			t.Fatal(err)
		}
		ref.deliver(coll, rows...)
	}
	tickBoth := func() {
		t.Helper()
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.tick(); err != nil {
			t.Fatal(err)
		}
		for _, c := range mod.Collections() {
			if got, want := n.Rows(c.Name), ref.state[c.Name].snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("collection %q: seminaive %v vs reference %v", c.Name, got, want)
			}
		}
	}

	const chain = 30
	edge := func(i int) Row { return Row{S(fmt.Sprintf("n%02d", i)), S(fmt.Sprintf("n%02d", i+1))} }
	for i := 0; i < chain/2; i++ {
		deliver("edges", edge(i))
	}
	tickBoth()
	// Second tick: extend the chain and block an intermediate node; paths
	// straddling n20 must not be derived.
	for i := chain / 2; i < chain; i++ {
		deliver("edges", edge(i))
	}
	deliver("blocks", Row{S("n20")})
	tickBoth()
	// All (i, j) pairs except those with i < 20 < j: 465 - 20*10.
	if want := chain*(chain+1)/2 - 20*10; n.Size("path") != want {
		t.Fatalf("path size = %d, want %d", n.Size("path"), want)
	}
}

// TestSemiNaiveRecursiveDeltaJoin pins the semi-naive delta path on the
// classic recursive case with a larger graph than the node_test version.
func TestSemiNaiveRecursiveDeltaJoin(t *testing.T) {
	m := NewModule("tc")
	m.Input("edges", "src", "dst")
	m.Input("marks", "m")
	m.Table("edge", "src", "dst")
	m.Table("path", "src", "dst")
	m.Table("mark", "m")
	// reach joins a collection that stops changing after the first
	// iteration (mark) against one that keeps growing (path), so new rows
	// arrive exclusively through the full-left ⋈ Δright delta branch.
	m.Table("reach", "m", "dst")
	m.Rule("edge", Instant, Scan("edges"))
	m.Rule("mark", Instant, Scan("marks"))
	m.Rule("path", Instant, Scan("edge"))
	m.Rule("path", Instant,
		Project(
			Join(Project(Scan("path"), Col("src"), ColAs("dst", "mid")), Scan("edge"), [2]string{"mid", "src"}),
			Col("src"), Col("dst")))
	m.Rule("reach", Instant,
		Join(Project(Scan("mark"), ColAs("m", "src")), Scan("path"), [2]string{"src", "src"}))
	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	// A chain of 30 nodes, delivered in two halves across two ticks: the
	// second tick re-runs the recursive fixpoint after the edge store
	// changed, so any stale cache of a join side (version invalidation
	// bugs) would truncate the closure.
	const chain = 30
	deliverEdges := func(from, to int) {
		for i := from; i < to; i++ {
			if err := n.Deliver("edges", Row{S(fmt.Sprintf("n%02d", i)), S(fmt.Sprintf("n%02d", i+1))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	deliverEdges(0, chain/2)
	if err := n.Deliver("marks", Row{S("n00")}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	half := chain / 2
	if want := half * (half + 1) / 2; n.Size("path") != want {
		t.Fatalf("path size after half = %d, want %d", n.Size("path"), want)
	}
	deliverEdges(chain/2, chain)
	if _, err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	want := chain * (chain + 1) / 2
	if n.Size("path") != want {
		t.Fatalf("path size = %d, want %d", n.Size("path"), want)
	}
	// n00 reaches every other node in the chain.
	if n.Size("reach") != chain {
		t.Fatalf("reach size = %d, want %d: %v", n.Size("reach"), chain, n.Rows("reach"))
	}
}
