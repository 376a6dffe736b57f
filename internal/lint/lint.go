// Package lint is the Blazes codebase's own static-analysis layer: custom
// analyzers that enforce the determinism contract the runtime depends on
// (byte-identical schedules across parallelism levels, session reports
// byte-identical to fresh analyses). The paper's stance — coordination bugs
// should be caught by analysis, not testing — is applied at the meta level:
// instead of waiting for a differential test seed to hit a nondeterminism
// source, the linters reject the source constructs outright.
//
// Three analyzers ship today (see the registry for the extension recipe):
//
//   - maporder: in the deterministic packages a map is read sorted on the
//     spot (slices.Sorted(maps.Keys(m)) and its Values/Func forms) or
//     collected into a map (maps.Collect, Insert, Copy, Clone); any other
//     range over a map, or use of maps.Keys/Values/All, is a finding.
//   - nondet: forbids wall-clock reads (time.Now and friends), global
//     math/rand draws, environment-conditioned behavior (os.Getenv), and
//     multi-channel select in the deterministic packages.
//   - ctxflow: enforces the PR 5 context convention: ctx is the first
//     parameter, sweep entry points accept one (or have a Context-suffixed
//     sibling), and a function that was handed a ctx must not mint its own
//     context.Background/TODO.
//
// Diagnostics are suppressed per line with a reasoned marker:
//
//	//lint:allow <check> <reason...>
//
// on the flagged line or the line above it. A marker without a reason is
// itself a diagnostic — every suppression documents why the construct is
// safe — and so is a marker naming no registered check, which could
// suppress nothing.
//
// The package is stdlib-only by design: it reimplements the narrow slice of
// golang.org/x/tools/go/analysis it needs (a Pass over typed syntax, and
// Load, which type-checks packages the go tool lists against their
// dependencies' export data) so the repo keeps its zero-dependency stance.
// cmd/blazeslint is the one driver: `go run ./cmd/blazeslint ./...` loads
// the whole module and runs every registered analyzer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one named static-analysis pass.
type Analyzer struct {
	// Name identifies the check in diagnostics and suppression markers.
	Name string
	// Doc is the one-line description the CLI prints.
	Doc string
	// Scope lists the import paths the analyzer applies to. Empty means
	// every package the driver hands it (tests use this to point an
	// analyzer at a testdata package).
	Scope []string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// AppliesTo reports whether the analyzer covers the import path.
func (a *Analyzer) AppliesTo(importPath string) bool {
	return len(a.Scope) == 0 || slices.Contains(a.Scope, importPath)
}

// Pass carries one type-checked package through an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files holds the package's syntax. Test files (_test.go) are already
	// excluded: the determinism contract binds production code.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	diags    *[]Diagnostic
	suppress suppressionIndex
}

// Diagnostic is one finding, positioned and attributed to its check.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Check)
}

// Reportf records a finding unless a reasoned //lint:allow marker covers
// the position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppress.covers(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// allowMarker is the suppression prefix: //lint:allow <check> <reason>.
const allowMarker = "lint:allow"

// suppressionIndex maps (file, line) to the checks allowed there. A marker
// covers its own line and, when it stands alone on a line, the line below —
// the two placements gofmt produces.
type suppressionIndex map[string]map[int][]string

func (s suppressionIndex) covers(check string, pos token.Position) bool {
	lines := s[pos.Filename]
	for _, c := range lines[pos.Line] {
		if c == check {
			return true
		}
	}
	return false
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// Analyze runs every analyzer that applies to the package and returns the
// surviving diagnostics in position order. A //lint:allow marker naming no
// registered check is a finding, and so is an unreasoned marker of a check
// in this run, attributed to that check: a suppression can never silently
// suppress nothing or drop its justification.
func Analyze(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	idx, markers := indexSuppressions(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		if !a.AppliesTo(pkg.ImportPath) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
			suppress: idx,
		}
		a.Run(pass)
	}
	known := Names()
	for _, m := range markers {
		var msg string
		switch {
		case !slices.Contains(known, m.check):
			msg = fmt.Sprintf("//lint:allow %s names no check (valid: %s)", m.check, strings.Join(known, ", "))
		case !m.reasoned && slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a.Name == m.check }):
			msg = fmt.Sprintf("//lint:allow %s needs a reason (write: //lint:allow %s <why this is safe>)", m.check, m.check)
		default:
			continue
		}
		diags = append(diags, Diagnostic{Pos: m.pos, Check: m.check, Message: msg})
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// marker is one //lint:allow marker the runner may have to flag.
type marker struct {
	check    string
	reasoned bool
	pos      token.Position
}

// indexSuppressions scans every comment for //lint:allow markers. Markers
// with a reason populate the index; every marker is returned so the runner
// can flag the reasonless and the misnamed ones.
func indexSuppressions(fset *token.FileSet, files []*ast.File) (suppressionIndex, []marker) {
	idx := suppressionIndex{}
	var markers []marker
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowMarker) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowMarker))
				check, reason, _ := strings.Cut(rest, " ")
				pos := fset.Position(c.Pos())
				if check == "" {
					continue
				}
				reasoned := strings.TrimSpace(reason) != ""
				markers = append(markers, marker{check: check, reasoned: reasoned, pos: token.Position{Filename: pos.Filename, Line: pos.Line, Column: 1}})
				if !reasoned {
					continue
				}
				lines := idx[pos.Filename]
				if lines == nil {
					lines = map[int][]string{}
					idx[pos.Filename] = lines
				}
				// The marker covers its own line (trailing comment) and
				// the next line (standalone comment above the construct).
				lines[pos.Line] = append(lines[pos.Line], check)
				lines[pos.Line+1] = append(lines[pos.Line+1], check)
			}
		}
	}
	return idx, markers
}
