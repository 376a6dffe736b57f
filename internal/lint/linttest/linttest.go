// Package linttest runs an analyzer over a testdata package and checks its
// findings against expectation comments, the same workflow analysistest
// gives x/tools analyzers — reimplemented on the repo's own loader so the
// zero-dependency stance holds for the tests too.
//
// Expectations are written in the source under test:
//
//	for k := range m { // want "range over map lets iteration order escape"
//
// asserts that a diagnostic whose message contains the quoted substring is
// reported on that line. A comment line of its own can also expect a
// diagnostic on the line below it:
//
//	// want-next "needs a reason"
//	//lint:allow maporder
//
// (needed exactly there: a reasonless //lint:allow marker is itself the
// finding, and appending the expectation to the marker line would become
// its reason). Every want must be matched by a diagnostic and every
// diagnostic by a want; either leftover fails the test.
package linttest

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"

	"blazes/internal/lint"
)

// wantRE pulls the quoted substrings out of want comments.
var wantRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one parsed want comment, pinned to the line the
// diagnostic must land on.
type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

// Run loads the module rooted at srcDir, analyzes the packages matching
// pattern with the named analyzer (scope cleared, so it applies to the
// testdata packages), and compares findings against want comments.
func Run(t *testing.T, analyzer, srcDir string, patterns ...string) {
	t.Helper()
	a, err := lint.New(analyzer)
	if err != nil {
		t.Fatal(err)
	}
	a.Scope = nil
	pkgs, err := lint.Load(srcDir, patterns...)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages matched %v under %s", patterns, srcDir)
	}
	for _, pkg := range pkgs {
		wants := collectWants(t, pkg)
		diags := lint.Analyze(pkg, []*lint.Analyzer{a})
		for _, d := range diags {
			if !claim(wants, d.Pos, d.Message) {
				t.Errorf("%s: unexpected diagnostic: %s [%s]", pkg.ImportPath, d, d.Check)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s: %s:%d: no diagnostic matching %q", pkg.ImportPath, w.file, w.line, w.substr)
			}
		}
	}
}

// claim marks the first unmatched expectation covering the diagnostic.
func claim(wants []*expectation, pos token.Position, message string) bool {
	for _, w := range wants {
		if !w.matched && w.file == pos.Filename && w.line == pos.Line && strings.Contains(message, w.substr) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants scans every comment of the package for want markers.
func collectWants(t *testing.T, pkg *lint.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				offset := 0
				switch {
				case strings.HasPrefix(text, "want-next "):
					text, offset = strings.TrimPrefix(text, "want-next "), 1
				case strings.HasPrefix(text, "want "):
					text = strings.TrimPrefix(text, "want ")
				default:
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				matches := wantRE.FindAllStringSubmatch(text, -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment without a quoted substring", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					substr, err := unquoteWant(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{
						file:   pos.Filename,
						line:   pos.Line + offset,
						substr: substr,
					})
				}
			}
		}
	}
	return wants
}

// unquoteWant undoes the minimal escaping want strings need (\" and \\).
func unquoteWant(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		if i == len(s) {
			return "", fmt.Errorf("trailing backslash")
		}
		switch s[i] {
		case '"', '\\':
			b.WriteByte(s[i])
		default:
			return "", fmt.Errorf(`only \" and \\ escapes are supported`)
		}
	}
	return b.String(), nil
}
