package dataflow

import (
	"slices"
	"strings"
	"testing"

	"blazes/internal/core"
)

// Golden tests for every derivation in Section VI of the paper.

// TestCaseStudyWordcountUnsealed reproduces Section VI-A2, first derivation:
// without seal annotations the wordcount dataflow derives Run — replay is
// not deterministic and Blazes recommends coordination.
func TestCaseStudyWordcountUnsealed(t *testing.T) {
	a, err := Analyze(wordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}

	// Splitter: Async × CR ⇒(p) Async.
	if got := outputLabel(t, a, "Splitter", "words"); !got.Equal(core.Async) {
		t.Errorf("Splitter output = %s, want Async", got)
	}
	// Count: Async × OW_{word,batch} ⇒(2) Taint ⇒ Run.
	if got := outputLabel(t, a, "Count", "counts"); !got.Equal(core.Run) {
		t.Errorf("Count output = %s, want Run", got)
	}
	assertStep(t, a, "Count", core.Step{
		In: core.Async, Ann: core.OWGate("word", "batch"), Rule: core.Rule2, Out: core.Taint,
	})
	// Commit: Run × CW ⇒(p) Run.
	if got := outputLabel(t, a, "Commit", "db"); !got.Equal(core.Run) {
		t.Errorf("Commit output = %s, want Run", got)
	}
	if !a.Verdict.Equal(core.Run) {
		t.Errorf("verdict = %s, want Run", a.Verdict)
	}
	if a.Deterministic() {
		t.Error("unsealed wordcount must not be deterministic")
	}
}

// TestCaseStudyWordcountSealed reproduces Section VI-A2, second derivation:
// with the input sealed on batch, the compatibility between punctuations and
// the Count gate yields Async end to end.
func TestCaseStudyWordcountSealed(t *testing.T) {
	a, err := Analyze(wordcountTopology(true))
	if err != nil {
		t.Fatal(err)
	}

	// Splitter: Seal_batch × CR ⇒(p) Seal_batch.
	if got := outputLabel(t, a, "Splitter", "words"); !got.Equal(core.Seal("batch")) {
		t.Errorf("Splitter output = %s, want Seal(batch)", got)
	}
	// Count: Seal_batch × OW_{word,batch} ⇒(p) Async (seal consumed).
	if got := outputLabel(t, a, "Count", "counts"); !got.Equal(core.Async) {
		t.Errorf("Count output = %s, want Async", got)
	}
	// Commit: Async × CW ⇒(p) Async.
	if got := a.Verdict; !got.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", got)
	}
	if !a.Deterministic() {
		t.Error("sealed wordcount must be deterministic")
	}
}

// assertStep checks that the component's derivation contains the given step.
func assertStep(t *testing.T, a *Analysis, comp string, want core.Step) {
	t.Helper()
	ca, ok := a.Component(comp)
	if !ok {
		t.Fatalf("no analysis for component %q", comp)
	}
	steps := slices.Collect(ca.Steps())
	for _, st := range steps {
		if st.Rule == want.Rule && st.In.Equal(want.In) && st.Out.Equal(want.Out) &&
			st.Ann.String() == want.Ann.String() {
			return
		}
	}
	t.Errorf("component %s: missing step %q; have %v", comp, want, steps)
}

// outputLabel returns the merged label of comp's output interface.
func outputLabel(t *testing.T, a *Analysis, comp, iface string) core.Label {
	t.Helper()
	ca, ok := a.Component(comp)
	if !ok || ca.Output(iface) == nil {
		t.Fatalf("no analysis for %s.%s", comp, iface)
	}
	return ca.Output(iface).Reconciliation.Output
}

func TestExplainContainsDerivation(t *testing.T) {
	a, err := Analyze(wordcountTopology(false))
	if err != nil {
		t.Fatal(err)
	}
	out := a.Explain()
	for _, want := range []string{
		"component Count",
		"Async OW(batch,word) (2) Taint",
		"verdict: Run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
}
