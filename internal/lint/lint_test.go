package lint_test

import (
	"strings"
	"testing"

	"blazes/internal/lint"
	"blazes/internal/lint/linttest"
)

// The three analyzers run over dedicated testdata packages (their own
// module under testdata/src, so the go tool ignores it from the repo root)
// with want-comment expectations: positive cases, the accepted forms, and
// the suppression marker in both its reasoned and reasonless forms.

func TestMapOrder(t *testing.T) {
	linttest.Run(t, "maporder", "testdata/src", "./maporder")
}

func TestNonDet(t *testing.T) {
	linttest.Run(t, "nondet", "testdata/src", "./nondet")
}

func TestCtxFlow(t *testing.T) {
	linttest.Run(t, "ctxflow", "testdata/src", "./ctxflow")
}

// The registry table's invariant: every valid name resolves through New
// to a complete analyzer, Names returns them sorted, unknown names fail
// with a self-updating message.

func TestRegistry(t *testing.T) {
	names := lint.Names()
	if len(names) == 0 {
		t.Fatal("no registered analyzers")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	for _, n := range names {
		a, err := lint.New(n)
		if err != nil {
			t.Fatalf("New(%q): %v", n, err)
		}
		if a.Name != n || a.Run == nil || a.Doc == "" {
			t.Errorf("New(%q) = %+v: incomplete analyzer", n, a)
		}
	}
	if _, err := lint.New("bogus"); err == nil || !strings.Contains(err.Error(), strings.Join(names, ", ")) {
		t.Errorf("New(bogus) error %v should list the valid names", err)
	}
	all := lint.All()
	if len(all) != len(names) {
		t.Fatalf("All() returned %d analyzers, want %d", len(all), len(names))
	}
}

// AppliesTo pins the scope semantics the driver depends on: exact import
// paths, and the empty-scope wildcard tests use.
func TestAppliesTo(t *testing.T) {
	a := &lint.Analyzer{Name: "x", Scope: []string{"blazes/internal/sim"}}
	for path, want := range map[string]bool{
		"blazes/internal/sim":   true,
		"blazes/internal/storm": false,
		"blazes/internal/simx":  false,
	} {
		if got := a.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
	wild := &lint.Analyzer{Name: "y"}
	if !wild.AppliesTo("anything/at/all") {
		t.Error("empty scope must match every package")
	}
}
