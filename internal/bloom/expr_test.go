package bloom

import (
	"reflect"
	"strings"
	"testing"
)

// evalModule builds a module with the given collections preloaded and
// evaluates expr against it.
func evalExpr(t *testing.T, m *Module, data map[string][]Row, e Expr) []Row {
	t.Helper()
	n, err := NewNode("test", m)
	if err != nil {
		t.Fatal(err)
	}
	for coll, rows := range data {
		n.state[coll] = &store{}
		for _, r := range rows {
			n.state[coll].insert(r)
		}
	}
	rows, err := e.eval(m, n)
	if err != nil {
		t.Fatal(err)
	}
	SortRows(rows)
	return rows
}

func clicksModule() *Module {
	m := NewModule("m")
	m.Table("clicks", "id", "campaign", "n")
	m.Table("ads", "id", "owner")
	// A rule so Validate passes.
	m.Scratch("copy", "id", "campaign", "n")
	m.Rule("copy", Instant, Scan("clicks"))
	return m
}

func TestScanAndProject(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(3)},
		{S("a2"), S("c2"), I(5)},
	}}
	got := evalExpr(t, m, data, Project(Scan("clicks"), Col("id"), ColAs("campaign", "camp")))
	want := []Row{{S("a1"), S("c1")}, {S("a2"), S("c2")}}
	SortRows(want)
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestProjectConstAndDedup(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(3)},
		{S("a2"), S("c1"), I(5)},
	}}
	got := evalExpr(t, m, data, Project(Scan("clicks"), Col("campaign"), ConstCol("tag", S("x"))))
	// Both rows project to the same (c1, x): set semantics dedups.
	if len(got) != 1 || !reflect.DeepEqual(got[0], Row{S("c1"), S("x")}) {
		t.Errorf("got %v", got)
	}
}

func TestSelectPredicates(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(3)},
		{S("a2"), S("c2"), I(5)},
		{S("a3"), S("c1"), I(9)},
	}}
	got := evalExpr(t, m, data, Select(Scan("clicks"), Where("n", GT, I(3)), Where("campaign", EQ, S("c1"))))
	if len(got) != 1 || got[0][0] != S("a3") {
		t.Errorf("got %v", got)
	}
}

func TestJoin(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{
		"clicks": {{S("a1"), S("c1"), I(3)}, {S("a2"), S("c2"), I(5)}},
		"ads":    {{S("a1"), S("alice")}, {S("a3"), S("bob")}},
	}
	got := evalExpr(t, m, data, Join(Scan("clicks"), Scan("ads"), [2]string{"id", "id"}))
	// Join keeps left schema + right non-key columns.
	want := []Row{{S("a1"), S("c1"), I(3), S("alice")}}
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestJoinDuplicateColumnRejected(t *testing.T) {
	m := NewModule("m")
	m.Table("a", "x", "y")
	m.Table("b", "z", "y")
	m.Scratch("s", "x", "y")
	m.Rule("s", Instant, Scan("a"))
	_, err := Join(Scan("a"), Scan("b"), [2]string{"x", "z"}).Schema(m)
	if err == nil || !strings.Contains(err.Error(), "duplicate column") {
		t.Errorf("err = %v", err)
	}
}

func TestAntiJoin(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{
		"clicks": {{S("a1"), S("c1"), I(3)}, {S("a2"), S("c2"), I(5)}},
		"ads":    {{S("a1"), S("alice")}},
	}
	got := evalExpr(t, m, data, AntiJoin(Scan("clicks"), Scan("ads"), [2]string{"id", "id"}))
	want := []Row{{S("a2"), S("c2"), I(5)}}
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestGroupByCountAndHaving(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(1)},
		{S("a1"), S("c1"), I(2)},
		{S("a2"), S("c2"), I(3)},
	}}
	got := evalExpr(t, m, data,
		GroupBy(Scan("clicks"), []string{"id"}, Agg{Func: Count, As: "cnt"}).
			WithHaving(Where("cnt", GE, I(2))))
	want := []Row{{S("a1"), I(2)}}
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestGroupBySumMinMax(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(1)},
		{S("a1"), S("c2"), I(5)},
		{S("a2"), S("c3"), I(7)},
	}}
	got := evalExpr(t, m, data, GroupBy(Scan("clicks"), []string{"id"},
		Agg{Func: Sum, Col: "n", As: "total"},
		Agg{Func: Min, Col: "n", As: "lo"},
		Agg{Func: Max, Col: "n", As: "hi"},
	))
	want := []Row{
		{S("a1"), I(6), I(1), I(5)},
		{S("a2"), I(7), I(7), I(7)},
	}
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestMonotoneThreshold(t *testing.T) {
	m := clicksModule()
	data := map[string][]Row{"clicks": {
		{S("a1"), S("c1"), I(1)},
		{S("a1"), S("c2"), I(2)},
		{S("a2"), S("c3"), I(3)},
	}}
	got := evalExpr(t, m, data, MonotoneCountAtLeast(Scan("clicks"), []string{"id"}, 2))
	want := []Row{{S("a1")}}
	if !RowsEqual(got, want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestSchemaErrors(t *testing.T) {
	m := clicksModule()
	cases := []Expr{
		Scan("nope"),
		Project(Scan("clicks"), Col("nope")),
		GroupBy(Scan("clicks"), []string{"nope"}),
		MonotoneCountAtLeast(Scan("clicks"), []string{"nope"}, 1),
		Join(Scan("clicks"), Scan("ads"), [2]string{"nope", "id"}),
	}
	for i, e := range cases {
		if _, err := e.Schema(m); err == nil {
			t.Errorf("case %d: want schema error", i)
		}
	}
}

func TestValueHelpers(t *testing.T) {
	if v, ok := AsInt(I(7)); !ok || v != 7 {
		t.Error("AsInt(int64) failed")
	}
	if v, ok := AsInt(S("42")); !ok || v != 42 {
		t.Error("AsInt(numeric string) failed")
	}
	if _, ok := AsInt(S("x")); ok {
		t.Error("AsInt of non-numeric must fail")
	}
	if AsString(I(5)) != "5" || AsString(S("a")) != "a" {
		t.Error("AsString failed")
	}
	if compareVals(I(1), I(2)) >= 0 || compareVals(S("b"), S("a")) <= 0 || compareVals(I(1), S("a")) >= 0 {
		t.Error("compareVals ordering wrong")
	}
}

func TestRowKeyDistinguishesTypes(t *testing.T) {
	a := Row{I(1)}
	b := Row{S("1")}
	if a.key() == b.key() {
		t.Error("int 1 and string \"1\" must have distinct keys")
	}
}
