package dataflow

import (
	"encoding/json"
	"strings"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// cleanGraph is a small pipeline no lint check fires on: source → Map
// (confluent) → Count (confluent write) → sink, schemas consistent.
func cleanGraph() *Graph {
	g := NewGraph("clean")
	m := g.Component("Map").AddPath("in", "out", core.CR)
	m.OutSchema = map[string]fd.AttrSet{"out": fd.NewAttrSet("word", "batch")}
	g.Component("Count").AddPath("words", "counts", core.CW)
	g.Source("tweets", "Map", "in")
	g.Connect("words", "Map", "out", "Count", "words")
	g.Sink("counts", "Count", "counts")
	return g
}

func lintCodes(diags []LintDiagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, d.Code)
	}
	return out
}

// one asserts exactly one diagnostic with the code and returns it. The
// graph must also pass Validate: every seeded defect here is advisory, so
// it belongs to lint alone (the no-double-report contract with Validate).
func one(t *testing.T, g *Graph, code string) LintDiagnostic {
	t.Helper()
	if err := g.Validate(); err != nil {
		t.Fatalf("defect graph must still pass Validate (lint owns it), got: %v", err)
	}
	diags := LintGraph(g)
	var found []LintDiagnostic
	for _, d := range diags {
		if d.Code == code {
			found = append(found, d)
		}
	}
	if len(found) != 1 {
		t.Fatalf("want exactly one %s, got %v", code, lintCodes(diags))
	}
	return found[0]
}

func TestLintClean(t *testing.T) {
	g := cleanGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if diags := LintGraph(g); len(diags) != 0 {
		t.Fatalf("clean graph produced %v", diags)
	}
}

func TestLintSealKeyNotInSchema(t *testing.T) {
	g := cleanGraph()
	g.Stream("words").Seal = fd.NewAttrSet("campaign")
	d := one(t, g, CodeSealKeyNotInSchema)
	if d.Severity != SeverityError || d.Subject != "words" {
		t.Errorf("got %v", d)
	}
	if !strings.Contains(d.Message, "campaign") {
		t.Errorf("message should name the phantom attribute: %s", d.Message)
	}

	// Seal on a declared attribute is clean.
	g.Stream("words").Seal = fd.NewAttrSet("batch")
	for _, d := range LintGraph(g) {
		if d.Code == CodeSealKeyNotInSchema {
			t.Errorf("in-schema seal flagged: %v", d)
		}
	}
}

func TestLintGateNotInSchema(t *testing.T) {
	g := cleanGraph()
	g.Lookup("Count").SetPathAnn("words", "counts", core.OWGate("campaign"))
	d := one(t, g, CodeGateNotInSchema)
	if d.Severity != SeverityError || d.Subject != "Count" {
		t.Errorf("got %v", d)
	}

	// A gate the schema carries is clean (the seal-compat check may still
	// warn; only BLZ002 is asserted absent).
	g.Lookup("Count").SetPathAnn("words", "counts", core.OWGate("word"))
	for _, d := range LintGraph(g) {
		if d.Code == CodeGateNotInSchema {
			t.Errorf("in-schema gate flagged: %v", d)
		}
	}
}

func TestLintUnreachable(t *testing.T) {
	g := cleanGraph()
	g.Component("Audit").AddPath("in", "out", core.CR)
	d := one(t, g, CodeUnreachable)
	if d.Severity != SeverityWarning || d.Subject != "Audit" {
		t.Errorf("got %v", d)
	}

	// Without any source the check stands down: nothing is reachable by
	// definition and flagging every component would be noise.
	h := NewGraph("nosource")
	h.Component("A").AddPath("in", "out", core.CR)
	if diags := LintGraph(h); len(lintCodes(diags)) != 0 {
		t.Errorf("sourceless graph flagged: %v", diags)
	}
}

func TestLintAnnotationContradiction(t *testing.T) {
	g := cleanGraph()
	// The same from→to pair annotated confluent and order-sensitive.
	g.Lookup("Count").AddPath("words", "counts", core.OWStar())
	d := one(t, g, CodeAnnotationContradiction)
	if d.Severity != SeverityError || d.Subject != "Count" {
		t.Errorf("got %v", d)
	}
}

func TestLintAnnotationEmptyGateNoStar(t *testing.T) {
	g := cleanGraph()
	// Order-sensitive, empty gate, no * marking: claims known partitioning
	// but names no attributes. Only builder-built graphs can express this.
	g.Lookup("Count").SetPathAnn("words", "counts", core.Annotation{Write: true})
	d := one(t, g, CodeAnnotationContradiction)
	if !strings.Contains(d.Message, "empty gate") {
		t.Errorf("got %v", d)
	}
}

func TestLintSealIncompatible(t *testing.T) {
	g := cleanGraph()
	// Sealed on batch, but the consumer partitions on word and batch does
	// not determine word through any declared dependency.
	g.Lookup("Map").OutSchema = nil // keep BLZ001/BLZ002 out of the way
	g.Stream("words").Seal = fd.NewAttrSet("batch")
	g.Lookup("Count").SetPathAnn("words", "counts", core.OWGate("word"))
	d := one(t, g, CodeSealIncompatible)
	if d.Severity != SeverityWarning || d.Subject != "words" {
		t.Errorf("got %v", d)
	}

	// Sealing on the gate itself is compatible.
	g.Stream("words").Seal = fd.NewAttrSet("word")
	for _, d := range LintGraph(g) {
		if d.Code == CodeSealIncompatible {
			t.Errorf("matching seal flagged: %v", d)
		}
	}
}

func TestLintUnsealedCycle(t *testing.T) {
	g := NewGraph("cycle")
	g.Component("A").AddPath("in", "out", core.OWStar())
	g.Component("B").AddPath("in", "out", core.CR)
	g.Source("src", "A", "in")
	g.Connect("ab", "A", "out", "B", "in")
	g.Connect("ba", "B", "out", "A", "in")
	d := one(t, g, CodeUnsealedCycle)
	if d.Severity != SeverityWarning || d.Subject != "A" {
		t.Errorf("got %v", d)
	}
	if !strings.Contains(d.Message, "{A, B}") {
		t.Errorf("message should list the cycle members: %s", d.Message)
	}

	// Any of the three outs stands the warning down: a sealed internal
	// stream, coordination on a member, or no order-sensitive member.
	seal := g.Clone()
	seal.Stream("ab").Seal = fd.NewAttrSet("k")
	coord := g.Clone()
	coord.Lookup("B").Coordination = CoordSequenced
	conf := g.Clone()
	conf.Lookup("A").SetPathAnn("in", "out", core.CW)
	for name, h := range map[string]*Graph{"sealed": seal, "coordinated": coord, "confluent": conf} {
		for _, d := range LintGraph(h) {
			if d.Code == CodeUnsealedCycle {
				t.Errorf("%s cycle flagged: %v", name, d)
			}
		}
	}

	// A self-loop is a one-member cycle.
	h := NewGraph("self")
	h.Component("A").AddPath("in", "out", core.OWStar())
	h.Source("src", "A", "in")
	h.Connect("loop", "A", "out", "A", "in")
	if d := one(t, h, CodeUnsealedCycle); !strings.Contains(d.Message, "{A}") {
		t.Errorf("got %v", d)
	}
}

// TestLintComponentCycleWithoutPathCycle: a cycle is one over paths
// (footnote 3). A and B wire into each other, but no path of A leads from
// the input B feeds to the output that feeds B, so there is no cycle and no
// BLZ006, however order-sensitive A is; every component is still reached.
func TestLintComponentCycleWithoutPathCycle(t *testing.T) {
	g := NewGraph("component-cycle")
	a := g.Component("A")
	a.AddPath("in", "o1", core.OWStar())
	a.AddPath("i2", "o2", core.OWStar())
	g.Component("B").AddPath("in", "out", core.CR)
	g.Source("src", "A", "in")
	g.Connect("ab", "A", "o1", "B", "in")
	g.Connect("ba", "B", "out", "A", "i2")
	g.Sink("snk", "A", "o2")
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if diags := LintGraph(g); len(diags) != 0 {
		t.Errorf("got %v", diags)
	}
}

// TestLintOrderingAndString pins the deterministic errors-first sort and
// the rendered form.
func TestLintOrderingAndString(t *testing.T) {
	g := cleanGraph()
	g.Component("Audit").AddPath("in", "out", core.CR) // BLZ003 warning
	g.Stream("words").Seal = fd.NewAttrSet("campaign") // BLZ001 error
	diags := LintGraph(g)
	codes := lintCodes(diags)
	if len(codes) != 2 || codes[0] != CodeSealKeyNotInSchema || codes[1] != CodeUnreachable {
		t.Fatalf("want errors before warnings [BLZ001 BLZ003], got %v", codes)
	}
	if s := diags[0].String(); !strings.HasPrefix(s, "error BLZ001 words: ") {
		t.Errorf("String() = %q", s)
	}
}

func TestLintSeverityJSON(t *testing.T) {
	for _, sev := range []LintSeverity{SeverityWarning, SeverityError} {
		data, err := json.Marshal(sev)
		if err != nil {
			t.Fatal(err)
		}
		var back LintSeverity
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != sev {
			t.Errorf("round trip %v -> %s -> %v", sev, data, back)
		}
	}
	var bad LintSeverity
	if err := json.Unmarshal([]byte(`"fatal"`), &bad); err == nil {
		t.Error("unknown severity name should fail to unmarshal")
	}
}

// TestLintValidateOwnership pins the split: structural breakage is
// Validate's alone (lint stays silent on those streams), advisory defects
// are lint's alone (Validate passes). A broken graph must not panic lint.
func TestLintValidateOwnership(t *testing.T) {
	g := NewGraph("broken")
	g.Component("A") // pathless: Validate's error
	g.Connect("ghost", "A", "out", "Nowhere", "in")
	g.Connect("void", "", "", "", "")
	if err := g.Validate(); err == nil {
		t.Fatal("Validate should reject the broken graph")
	}
	for _, d := range LintGraph(g) {
		switch d.Subject {
		case "ghost", "void":
			t.Errorf("lint re-reported a Validate defect: %v", d)
		}
	}

	// A stream from an unknown component closes no cycle through a
	// component that happens to have the named interface, and a graph
	// with streams but no components lints at all.
	h := NewGraph("ghost-cycle")
	h.Component("A").AddPath("in", "out", core.OWStar())
	h.Source("src", "A", "in")
	h.Connect("ghost", "Nowhere", "out", "A", "in")
	if diags := LintGraph(h); len(diags) != 0 {
		t.Errorf("ghost stream: got %v", diags)
	}
	e := NewGraph("empty")
	e.Connect("ghost", "X", "out", "Y", "in")
	LintGraph(e)
}
