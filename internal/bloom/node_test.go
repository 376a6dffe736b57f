package bloom

import (
	"slices"
	"strings"
	"testing"
)

// pathsModule: in → log (table) and out <~ in, the smallest interesting
// module.
func echoModule() *Module {
	m := NewModule("echo")
	m.Input("in", "v")
	m.Output("out", "v")
	m.Table("log", "v")
	m.Rule("log", Instant, Scan("in"))
	m.Rule("out", Async, Scan("in"))
	return m
}

func TestNodeTickBasics(t *testing.T) {
	n, err := NewNode("n1", echoModule())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver("in", Row{S("a")}, Row{S("b")}); err != nil {
		t.Fatal(err)
	}
	em, err := n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(em) != 1 || em[0].Collection != "out" || len(em[0].Rows) != 2 {
		t.Fatalf("emissions = %v", em)
	}
	// Table persisted; input cleared.
	if n.Size("log") != 2 {
		t.Errorf("log size = %d", n.Size("log"))
	}
	if n.Size("in") != 0 {
		t.Errorf("input not cleared: %d", n.Size("in"))
	}
	// A second tick with no input emits nothing new.
	em, err = n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(em) != 0 {
		t.Errorf("idle tick emitted %v", em)
	}
	if n.Ticks() != 2 {
		t.Errorf("ticks = %d", n.Ticks())
	}
}

func TestDeliverErrors(t *testing.T) {
	n, err := NewNode("n1", echoModule())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver("nope", Row{S("a")}); err == nil {
		t.Error("want unknown-collection error")
	}
	if err := n.Deliver("in", Row{S("a"), S("b")}); err == nil {
		t.Error("want arity error")
	}
}

func TestDeliverRejectsUnsupportedValueTypes(t *testing.T) {
	n, err := NewNode("n1", echoModule())
	if err != nil {
		t.Fatal(err)
	}
	// The hash and comparison paths are total only over string and int64;
	// everything else is rejected at the boundary.
	for _, bad := range []Val{int(1), int32(1), 1.5, true, nil, []byte("x")} {
		if err := n.Deliver("in", Row{bad}); err == nil || !strings.Contains(err.Error(), "unsupported type") {
			t.Errorf("Deliver(%T) err = %v, want unsupported-type error", bad, err)
		}
	}
	// A batch with a bad row is rejected atomically: the valid rows ahead
	// of it must not be queued either.
	if err := n.Deliver("in", Row{S("valid")}, Row{1.5}); err == nil {
		t.Error("want unsupported-type error for mixed batch")
	}
	if err := n.Deliver("in", Row{S("ok")}, Row{I(7)}); err != nil {
		t.Errorf("Deliver of string/int64 rows must succeed: %v", err)
	}
	// Rejected rows (and batches) must not have been queued.
	if _, err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if n.Size("log") != 2 {
		t.Errorf("log size = %d, want 2", n.Size("log"))
	}
}

// TestDeliverKeepsRowsEmitsCopies pins Deliver's ownership contract: the
// node stores the rows it is handed as given — the caller promises not to
// modify them — and its ticks, deferred deletes and the clearing of
// transients leave them untouched; everything handed out (Rows, every
// Emission, Render) is a copy, so a caller mutating it cannot reach the
// node's state.
func TestDeliverKeepsRowsEmitsCopies(t *testing.T) {
	m := NewModule("owner")
	m.Input("in", "k", "n")
	m.Table("log", "k", "n")
	m.Output("out", "k", "n")
	m.Channel("ch", "k", "n")
	m.Rule("log", Instant, Scan("in"))
	m.Rule("out", Instant, Scan("log"))
	m.Rule("ch", Async, Scan("in"))
	m.Rule("log", Delete, Select(Scan("log"), Where("k", EQ, S("drop"))))
	n, err := NewNode("owner", m)
	if err != nil {
		t.Fatal(err)
	}
	given := []Row{{S("a"), I(1)}, {S("drop"), I(2)}, {S("b"), I(3)}}
	want := make([]Row, len(given))
	for i, r := range given {
		want[i] = r.clone()
	}
	unchanged := func(when string) {
		t.Helper()
		for i := range given {
			if !rowsSame(given[i], want[i]) {
				t.Fatalf("%s: delivered row %d is %v, was %v", when, i, given[i], want[i])
			}
		}
	}
	if err := n.Deliver("in", given...); err != nil {
		t.Fatal(err)
	}
	em, err := n.Tick()
	if err != nil || len(em) != 2 {
		t.Fatalf("the delivering tick emitted %v, err %v; want ch and out", em, err)
	}
	unchanged("after the delivering tick (and the clear of in)")
	// The log holds the delivered rows themselves, not copies.
	for _, r := range n.state["log"].rows {
		if !slices.ContainsFunc(given, func(g Row) bool { return &g[0] == &r[0] }) {
			t.Fatalf("log holds %v, a copy of a delivered row", r)
		}
	}
	if _, err := n.Tick(); err != nil { // applies the deferred delete
		t.Fatal(err)
	}
	unchanged("after the deferred delete")
	if n.Size("log") != 2 {
		t.Fatalf("log size %d after the delete, want 2", n.Size("log"))
	}

	digest, render := n.Digest(), string(n.AppendRender(nil, "log"))
	for _, e := range em {
		for _, r := range e.Rows {
			r[0], r[1] = S("mutated"), I(-1)
		}
	}
	for _, r := range n.Rows("log") {
		r[0] = S("mutated")
	}
	em, err = n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range em {
		for _, r := range e.Rows {
			r[1] = I(-1)
		}
	}
	unchanged("after mutating every emission and Rows")
	if got := n.Digest(); got != digest {
		t.Errorf("digest moved from %s to %s when handed-out rows were mutated", digest, got)
	}
	if got := string(n.AppendRender(nil, "log")); got != render || got != "(a, 1),(b, 3)" {
		t.Errorf("Render = %q, was %q, want %q", got, render, "(a, 1),(b, 3)")
	}
}

func TestInstantFixpointTransitiveClosure(t *testing.T) {
	// path(x,y) <= edge(x,y); path(x,z) <= join(path, edge): classic
	// recursion requiring a fixpoint.
	m := NewModule("tc")
	m.Input("edges", "src", "dst")
	m.Table("edge", "src", "dst")
	m.Table("path", "src", "dst")
	m.Rule("edge", Instant, Scan("edges"))
	m.Rule("path", Instant, Scan("edge"))
	m.Rule("path", Instant,
		Project(
			Join(Project(Scan("path"), Col("src"), ColAs("dst", "mid")), Scan("edge"), [2]string{"mid", "src"}),
			Col("src"), Col("dst")))

	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Deliver("edges", Row{S("a"), S("b")}, Row{S("b"), S("c")}, Row{S("c"), S("d")}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Tick(); err != nil {
		t.Fatal(err)
	}
	if n.Size("path") != 6 { // ab bc cd ac bd ad
		t.Errorf("path size = %d, want 6: %v", n.Size("path"), n.Rows("path"))
	}
}

func TestDeferredAppliesNextTick(t *testing.T) {
	m := NewModule("d")
	m.Input("in", "v")
	m.Table("t", "v")
	m.Rule("t", Deferred, Scan("in"))
	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	n.Deliver("in", Row{S("x")})
	n.Tick()
	if n.Size("t") != 0 {
		t.Error("deferred merge must not be visible in the same tick")
	}
	n.Tick()
	if n.Size("t") != 1 {
		t.Error("deferred merge missing on the next tick")
	}
}

func TestDeleteRemovesNextTick(t *testing.T) {
	m := NewModule("del")
	m.Input("rm", "v")
	m.Table("t", "v")
	m.Scratch("seed", "v")
	m.Rule("t", Instant, Scan("seed"))
	m.Rule("t", Delete, Join(Scan("rm"), Scan("t"), [2]string{"v", "v"}))
	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	// Seed the table directly.
	n.state["t"].insert(Row{S("a")})
	n.state["t"].insert(Row{S("b")})
	n.Deliver("rm", Row{S("a")})
	n.Tick()
	if n.Size("t") != 2 {
		t.Error("delete must not apply within the tick")
	}
	n.Tick()
	if n.Size("t") != 1 || n.Rows("t")[0][0] != S("b") {
		t.Errorf("t = %v, want only b", n.Rows("t"))
	}
}

func TestStratifiedNegationEvaluatesCorrectly(t *testing.T) {
	// missing <= antijoin(all, present): the antijoin must run after
	// `present` is fully derived within the tick.
	m := NewModule("neg")
	m.Input("in", "v")
	m.Table("all", "v")
	m.Scratch("present", "v")
	m.Scratch("missing", "v")
	m.Output("out", "v")
	m.Rule("all", Instant, Scan("in"))
	m.Rule("present", Instant, Select(Scan("all"), Where("v", EQ, S("a"))))
	m.Rule("missing", Instant, AntiJoin(Scan("all"), Scan("present"), [2]string{"v", "v"}))
	m.Rule("out", Async, Scan("missing"))

	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	n.Deliver("in", Row{S("a")}, Row{S("b")})
	em, err := n.Tick()
	if err != nil {
		t.Fatal(err)
	}
	if len(em) != 1 || len(em[0].Rows) != 1 || em[0].Rows[0][0] != S("b") {
		t.Fatalf("emissions = %v, want exactly b", em)
	}
}

func TestUnstratifiableRejected(t *testing.T) {
	// p <= antijoin(q, p) is a negative cycle.
	m := NewModule("bad")
	m.Input("in", "v")
	m.Scratch("p", "v")
	m.Scratch("q", "v")
	m.Rule("q", Instant, Scan("in"))
	m.Rule("p", Instant, AntiJoin(Scan("q"), Scan("p"), [2]string{"v", "v"}))
	_, err := NewNode("n", m)
	if err == nil || !strings.Contains(err.Error(), "unstratifiable") {
		t.Errorf("err = %v, want unstratifiable", err)
	}
}

func TestDeferredNegativeCycleAllowed(t *testing.T) {
	// The same shape through <+ is fine: the cycle crosses timesteps.
	m := NewModule("ok")
	m.Input("in", "v")
	m.Table("p", "v")
	m.Scratch("q", "v")
	m.Rule("q", Instant, Scan("in"))
	m.Rule("p", Deferred, AntiJoin(Scan("q"), Scan("p"), [2]string{"v", "v"}))
	if _, err := NewNode("n", m); err != nil {
		t.Errorf("deferred negative cycle should stratify: %v", err)
	}
}

func TestModuleValidateErrors(t *testing.T) {
	tests := []struct {
		name  string
		build func() *Module
		want  string
	}{
		{"no rules", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			return m
		}, "no rules"},
		{"unknown head", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Rule("nope", Instant, Scan("in"))
			return m
		}, "unknown head"},
		{"schema mismatch", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Table("t", "a", "b")
			m.Rule("t", Instant, Scan("in"))
			return m
		}, "does not match"},
		{"write to input", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Table("t", "v")
			m.Rule("t", Instant, Scan("in"))
			m.Rule("in", Instant, Scan("t"))
			return m
		}, "cannot write input"},
		{"async into table", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Table("t", "v")
			m.Rule("t", Async, Scan("in"))
			return m
		}, "async merge"},
		{"duplicate collection columns", func() *Module {
			m := NewModule("m")
			m.Input("in", "v", "v")
			m.Table("t", "a", "b")
			m.Rule("t", Instant, Scan("in"))
			return m
		}, "duplicate column"},
		{"duplicate projected columns", func() *Module {
			// Duplicate output names would make downstream IndexOf
			// ambiguous and break the compiled join's set semantics.
			m := NewModule("m")
			m.Input("in", "a", "b")
			m.Table("t", "k", "k2")
			m.Rule("t", Instant, Project(Scan("in"), ColAs("a", "k"), ColAs("b", "k")))
			return m
		}, "duplicate column"},
		{"antijoin key missing on the right", func() *Module {
			return antiJoinModule([2]string{"x", "nope"})
		}, `antijoin key "nope" missing from right schema`},
		{"antijoin key missing on the left", func() *Module {
			return antiJoinModule([2]string{"nope", "x"})
		}, `antijoin key "nope" missing from left schema`},
		{"select on an unknown column", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Table("t", "v")
			m.Rule("t", Instant, Select(Scan("in"), Where("nope", EQ, I(1))))
			return m
		}, `select references unknown column "nope"`},
		{"having on an unknown column", func() *Module {
			m := NewModule("m")
			m.Input("in", "v")
			m.Table("t", "v", "n")
			m.Rule("t", Instant, GroupBy(Scan("in"), []string{"v"}, Agg{Func: Count, As: "n"}).
				WithHaving(Where("nope", GT, I(1))))
			return m
		}, `having references unknown column "nope"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := tt.build()
			err := m.Validate()
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want substring %q", err, tt.want)
			}
			// The runtime and the white-box extraction refuse the module
			// with Validate's error.
			if _, nerr := NewNode("n", m); nerr == nil || nerr.Error() != err.Error() {
				t.Errorf("NewNode err = %v, want %v", nerr, err)
			}
			if _, aerr := Analyze(m); aerr == nil || aerr.Error() != err.Error() {
				t.Errorf("Analyze err = %v, want %v", aerr, err)
			}
		})
	}
}

// antiJoinModule sends each input row the table has not seen to the output,
// the antijoin keyed on key.
func antiJoinModule(key [2]string) *Module {
	m := NewModule("m")
	m.Input("in", "x")
	m.Table("seen", "x")
	m.Output("out", "x")
	m.Rule("seen", Instant, Scan("in"))
	m.Rule("out", Instant, AntiJoin(Scan("in"), Scan("seen"), key))
	return m
}

func TestDrainQuiesces(t *testing.T) {
	// A chain of deferred rules takes several ticks to settle.
	m := NewModule("chain")
	m.Input("in", "v")
	m.Table("a", "v")
	m.Table("b", "v")
	m.Table("c", "v")
	m.Rule("a", Deferred, Scan("in"))
	m.Rule("b", Deferred, AntiJoin(Scan("a"), Scan("b"), [2]string{"v", "v"}))
	m.Rule("c", Deferred, AntiJoin(Scan("b"), Scan("c"), [2]string{"v", "v"}))
	n, err := NewNode("n", m)
	if err != nil {
		t.Fatal(err)
	}
	n.Deliver("in", Row{S("x")})
	ticks := 0
	for n.Pending() {
		if ticks++; ticks > 10 {
			t.Fatal("node did not quiesce within 10 ticks")
		}
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
	}
	if ticks < 2 {
		t.Errorf("settled in %d tick(s); the deferred chain should take several", ticks)
	}
	if n.Size("c") != 1 {
		t.Errorf("c = %v", n.Rows("c"))
	}
}
