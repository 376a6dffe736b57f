package lint

import (
	"go/ast"
	"go/types"
)

// maporder keeps Go's randomized map iteration order out of the
// deterministic packages with one rule: a map is read either sorted on the
// spot or collected into another map.
//
//   - Sorted: maps.Keys or maps.Values passed straight to slices.Sorted,
//     slices.SortedFunc or slices.SortedStableFunc.
//   - Collected: maps.All passed straight to maps.Collect or maps.Insert,
//     or the whole map handed to maps.Copy or maps.Clone.
//
// Every other range over a map value is a finding, and so is every other
// use of maps.Keys, maps.Values or maps.All. A loop whose result provably
// cannot depend on the order (a min, a max) says why in a
// //lint:allow maporder marker.
func runMapOrder(p *Pass) {
	for _, f := range p.Files {
		// drained holds the maps.Keys/Values/All references whose call is
		// the direct argument of a sorting or collecting function.
		drained := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if t := p.TypeOf(n.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						p.Reportf(n.Pos(), "range over map lets iteration order escape; range over slices.Sorted(maps.Keys(m)) or collect with maps.Collect/Insert/Copy/Clone (//lint:allow maporder <reason> if order provably cannot be observed)")
					}
				}
			case *ast.CallExpr:
				if mapDrains[stdFunc(p, n.Fun)] {
					for _, arg := range n.Args {
						if call, ok := ast.Unparen(arg).(*ast.CallExpr); ok {
							drained[ast.Unparen(call.Fun)] = true
						}
					}
				}
			case *ast.SelectorExpr:
				if name := stdFunc(p, n); mapSeqs[name] && !drained[n] {
					p.Reportf(n.Pos(), "%s lets iteration order escape; pass it straight to slices.Sorted/SortedFunc/SortedStableFunc or maps.Collect/Insert", name)
				}
			}
			return true
		})
	}
}

// mapSeqs are the iterators over a map, in the map's random order.
var mapSeqs = map[string]bool{"maps.Keys": true, "maps.Values": true, "maps.All": true}

// mapDrains are the functions that consume such an iterator into something
// whose order does not depend on the map's.
var mapDrains = map[string]bool{
	"slices.Sorted": true, "slices.SortedFunc": true, "slices.SortedStableFunc": true,
	"maps.Collect": true, "maps.Insert": true,
}

// stdFunc names the package-level function e refers to as "pkg.Name" (by
// import path), or "" when e is not a qualified function.
func stdFunc(p *Pass, e ast.Expr) string {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := p.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
