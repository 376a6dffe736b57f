package bloom

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"blazes/internal/race"
)

// scriptRow is one delivery of a node script.
type scriptRow struct {
	coll string
	row  Row
}

// nodeScript draws the deliveries before each of ticks timesteps, as
// TestSemiNaiveMatchesNaiveReference does: every third tick delivers nothing.
func nodeScript(g *modGen, ticks int) [][]scriptRow {
	deliverable := []struct {
		name  string
		arity int
	}{{"in1", 2}, {"in2", 3}, {"t1", 2}, {"ch1", 2}}
	script := make([][]scriptRow, ticks)
	for t := range script {
		for i := 0; t%3 != 2 && i < g.r.Intn(6); i++ {
			d := deliverable[g.r.Intn(len(deliverable))]
			script[t] = append(script[t], scriptRow{d.name, g.row(d.arity)})
		}
	}
	return script
}

// nodeView is everything a caller can read off a node between ticks.
func nodeView(n *Node) string {
	v := fmt.Sprintf("digest %s ticks %d pending %v\n", n.Digest(), n.Ticks(), n.Pending())
	for _, c := range n.mod.Collections() {
		v += fmt.Sprintf("%s: %q %v\n", c.Name, n.Render(c.Name), n.Rows(c.Name))
	}
	return v
}

// TestReleasedNodeMatchesFresh releases nodes of random modules in the
// middle of a run — rows delivered but not applied, deferred deletes
// queued, an async outbox filled, group and store hashes truncated — and
// holds the node NewNode then takes up to a freshly compiled one: over a
// second script, every tick's emissions and, between ticks, the digest and
// every collection's Render and Rows are equal. A module edited through
// Declare or Rule after a release never gets the released node back, and a
// second Release of one node does not shelve it twice.
func TestReleasedNodeMatchesFresh(t *testing.T) {
	if !race.Enabled {
		// A pool hands back on the P it was given on, so one P makes the
		// take-up certain; under -race the pool drops some at random.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	const seeds = 60
	for seed := int64(0); seed < seeds; seed++ {
		g := &modGen{r: rand.New(rand.NewSource(seed))}
		var mod *Module
		var used *Node
		for attempt := 0; attempt < 25 && mod == nil; attempt++ {
			m := g.module(seed)
			if n, err := NewNode("used", m); err == nil {
				mod, used = m, n
			}
		}
		if mod == nil {
			t.Fatalf("seed %d: no valid module in 25 attempts", seed)
		}
		forceGroupCollisions(used, 61)
		for _, st := range used.stores {
			st.hashShift = 60
		}
		for _, deliveries := range nodeScript(g, 6) {
			for _, d := range deliveries {
				if err := used.Deliver(d.coll, d.row); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := used.Tick(); err != nil {
				t.Fatal(err)
			}
		}
		// Mid-run: delivered rows, a deferred delete and an async merge
		// that no tick has applied or emitted yet.
		if err := used.Deliver("in1", g.row(2)); err != nil {
			t.Fatal(err)
		}
		t1 := used.state["t1"]
		t1.pendingDel = append(t1.pendingDel, g.row(2))
		head := used.prog.asyncHeads
		if len(head) == 0 {
			head = []*store{used.state["ch1"]}
		}
		head[0].outbox = append(head[0].outbox, g.row(len(head[0].decl.Schema)))
		used.Release()

		again, err := NewNode("b", mod)
		if err != nil {
			t.Fatal(err)
		}
		if !race.Enabled && again != used {
			t.Fatalf("seed %d: NewNode compiled with a released node of the module waiting", seed)
		}
		// What no output shows: the truncated hashes and the memos' rows.
		for _, st := range again.stores {
			if st.hashShift != 0 {
				t.Fatalf("seed %d: %s still drops %d hash bits", seed, st.decl.Name, st.hashShift)
			}
		}
		for _, rules := range append(again.prog.instant, again.prog.rest) {
			for _, cr := range rules {
				if cr.memoOK || cr.memoRows != nil {
					t.Fatalf("seed %d: rule %s kept its memo", seed, cr.rule)
				}
			}
		}
		fresh, err := NewNode("b", mod)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == again {
			t.Fatalf("seed %d: one released node was handed out twice", seed)
		}
		if got, want := nodeView(again), nodeView(fresh); got != want {
			t.Fatalf("seed %d: taken up, the node reads\n%s\na fresh one\n%s", seed, got, want)
		}
		for tick, deliveries := range nodeScript(g, 9) {
			for _, d := range deliveries {
				if err := again.Deliver(d.coll, d.row); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Deliver(d.coll, d.row); err != nil {
					t.Fatal(err)
				}
			}
			got, err := again.Tick()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Tick()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d tick %d: the taken-up node emitted\n%v\na fresh one\n%v", seed, tick, got, want)
			}
			if got, want := nodeView(again), nodeView(fresh); got != want {
				t.Fatalf("seed %d tick %d: the taken-up node reads\n%s\na fresh one\n%s", seed, tick, got, want)
			}
		}

		// Released twice, shelved once.
		again.Release()
		again.Release()
		a, _ := NewNode("c", mod)
		b, _ := NewNode("d", mod)
		if a == b {
			t.Fatalf("seed %d: a node released twice was handed out twice", seed)
		}

		// An edit after the release makes the released node stale.
		a.Release()
		if seed%2 == 0 {
			mod.Table("late", "l")
		} else {
			mod.Rule("t1", Instant, Scan("t1"))
		}
		edited, err := NewNode("e", mod)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if edited == a {
			t.Fatalf("seed %d: the module was edited after the release and NewNode handed back the released node", seed)
		}
		rules := len(edited.prog.rest)
		for _, in := range edited.prog.instant {
			rules += len(in)
		}
		if len(edited.stores) != len(mod.order) || rules != len(mod.rules) {
			t.Fatalf("seed %d: the node after the edit has %d stores and %d rules, the module %d and %d",
				seed, len(edited.stores), rules, len(mod.order), len(mod.rules))
		}
	}
}
