package bloom

import (
	"maps"
	"slices"

	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
)

// PathAnnotation is an automatically derived C.O.W.R. annotation for one
// (input interface, output interface) pair of a module — the white-box
// extraction of Section VII.
type PathAnnotation struct {
	From, To string
	Ann      core.Annotation
}

// ModuleAnalysis is the full white-box result for a module.
type ModuleAnalysis struct {
	Module *Module
	Paths  []PathAnnotation
	// Deps is the lineage catalog: injective functional dependencies
	// extracted from identity projections (Section VII-B2), used for seal
	// compatibility and chasing.
	Deps *fd.Set
	// OutSchema maps output interfaces to their attribute sets, enabling
	// seal-key chasing in the dataflow analysis.
	OutSchema map[string]fd.AttrSet
}

// Analyze derives component annotations for a module.
//
// Attribution model (documented in DESIGN.md): a path exists from input
// `in` to output `out` when `out` is reachable from `in` through the rule
// graph. The path's *annotation*, however, is computed from the input's
// "live segment": the rules reachable from `in` through transient
// collections only, stopping at persistent tables (state written at arrival
// time), with scratch reads expanded transitively (scratches recompute at
// read time, so their derivation ops — e.g. the aggregation behind a
// standing query — execute when the *reading* event arrives). This matches
// the paper's manual annotations: the reporting server's click→response
// path is CW (a log append), while its request→response path carries the
// query's aggregation and is OR with the query's grouping columns as gate.
func Analyze(m *Module) (*ModuleAnalysis, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	res := &ModuleAnalysis{
		Module:    m,
		Deps:      extractLineage(m),
		OutSchema: map[string]fd.AttrSet{},
	}
	for _, out := range m.Outputs() {
		res.OutSchema[out] = fd.NewAttrSet(m.Collection(out).Schema...)
	}

	full := fullReachability(m)
	for _, in := range m.Inputs() {
		for _, out := range m.Outputs() {
			if !full[in][out] {
				continue
			}
			res.Paths = append(res.Paths, PathAnnotation{From: in, To: out, Ann: liveSegmentAnnotation(m, in, out, full)})
		}
	}
	return res, nil
}

// fullReachability maps each collection to the set of collections reachable
// through rules of any merge operator.
func fullReachability(m *Module) map[string]map[string]bool {
	adj := map[string][]string{}
	for _, r := range m.rules {
		for _, read := range reads(r.Body) {
			adj[read] = append(adj[read], r.Head)
		}
	}
	out := map[string]map[string]bool{}
	for _, start := range m.order {
		seen := map[string]bool{}
		queue := []string{start}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, w := range adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		out[start] = seen
	}
	return out
}

// expandRuleOps returns the gates of a rule's nonmonotonic operations, its
// body's and those of the scratch collections it reads, inlined (they
// recompute each timestep, so their ops happen at read time). Tables,
// channels and interfaces are boundaries. A rule is monotonic exactly when
// it has no gate.
func expandRuleOps(m *Module, r Rule, visiting map[int]bool) []fd.AttrSet {
	gates := exprOps(r.Body)
	if r.Op == Delete {
		// Deletion is nonmonotonic with no known partitioning.
		gates = append(gates, fd.AttrSet{})
	}
	for _, read := range reads(r.Body) {
		if m.Collection(read).Kind != Scratch {
			continue
		}
		for idx, dr := range m.rules {
			if dr.Head != read || visiting[idx] {
				continue
			}
			visiting[idx] = true
			gates = append(gates, expandRuleOps(m, dr, visiting)...)
			visiting[idx] = false
		}
	}
	return gates
}

// exprOps is the monotonicity classifier: it returns a gate for every
// nonmonotonic operation of a single expression tree, per the paper's
// subscript rules (Section VII-B1): an aggregation's gate is its grouping
// columns; an antijoin's is the columns in its theta clause. An empty gate
// marks an op with unknown partitioning.
func exprOps(e Expr) []fd.AttrSet {
	switch x := e.(type) {
	case *ProjectExpr:
		return exprOps(x.Input)
	case *SelectExpr:
		return exprOps(x.Input)
	case *JoinExpr:
		return append(exprOps(x.Left), exprOps(x.Right)...)
	case *AntiJoinExpr:
		var theta []string
		for _, p := range x.On {
			theta = append(theta, p[0])
		}
		return append(append(exprOps(x.Left), exprOps(x.Right)...), fd.NewAttrSet(theta...))
	case *GroupByExpr:
		return append(exprOps(x.Input), fd.NewAttrSet(x.Keys...))
	case *ThresholdExpr:
		return exprOps(x.Input)
	default:
		return nil
	}
}

// liveSegmentAnnotation computes the C.O.W.R. annotation for in→out.
func liveSegmentAnnotation(m *Module, in, out string, full map[string]map[string]bool) core.Annotation {
	live := map[string]bool{in: true}
	queue := []string{in}
	write := false
	var gates []fd.AttrSet

	attributed := map[int]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for idx, r := range m.rules {
			if attributed[idx] || !slices.Contains(reads(r.Body), cur) {
				continue
			}
			// Only rules that can influence this output count.
			if r.Head != out && !full[r.Head][out] {
				continue
			}
			attributed[idx] = true
			gates = append(gates, expandRuleOps(m, r, map[int]bool{})...)

			if m.Collection(r.Head).Kind == Table || r.Op == Delete {
				// State write: the live segment ends at the table
				// boundary (downstream ops run at *their* trigger time).
				write = true
				continue
			}
			if !live[r.Head] {
				live[r.Head] = true
				queue = append(queue, r.Head)
			}
		}
	}

	if len(gates) == 0 {
		if write {
			return core.CW
		}
		return core.CR
	}
	gate, known := combineGates(gates)
	switch {
	case !known && write:
		return core.OWStar()
	case !known:
		return core.ORStar()
	case write:
		return core.OWGate(gate.Attrs()...)
	default:
		return core.ORGate(gate.Attrs()...)
	}
}

// combineGates merges the gates of the nonmonotonic ops on a path: all
// known and identical ⇒ that gate; otherwise unknown (conservative ⇒ *).
func combineGates(gates []fd.AttrSet) (fd.AttrSet, bool) {
	if len(gates) == 0 {
		return fd.AttrSet{}, false
	}
	first := gates[0]
	if first.IsEmpty() {
		return fd.AttrSet{}, false
	}
	for _, g := range gates[1:] {
		if !g.Equal(first) {
			return fd.AttrSet{}, false
		}
	}
	return first, true
}

// extractLineage builds the injective-FD catalog from identity projections:
// every column carried without transformation records an injective
// dependency between its source and target names (Section VII-B2's sound
// but incomplete detection via transitive identity applications).
func extractLineage(m *Module) *fd.Set {
	deps := fd.NewSet()
	// Every declared column injectively determines itself.
	for _, c := range m.Collections() {
		deps.AddIdentity(c.Schema...)
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ProjectExpr:
			for _, cs := range x.Cols {
				if cs.From != "" && cs.out() != cs.From {
					deps.Add(fd.Rename(cs.From, cs.out()))
					deps.Add(fd.Rename(cs.out(), cs.From))
				}
			}
			walk(x.Input)
		case *SelectExpr:
			walk(x.Input)
		case *JoinExpr:
			walk(x.Left)
			walk(x.Right)
		case *AntiJoinExpr:
			walk(x.Left)
			walk(x.Right)
		case *GroupByExpr:
			for _, a := range x.Aggs {
				if a.Func != Count {
					deps.Add(fd.NewFD(fd.NewAttrSet(a.Col), fd.NewAttrSet(a.As)))
				}
			}
			walk(x.Input)
		case *ThresholdExpr:
			walk(x.Input)
		}
	}
	for _, r := range m.rules {
		walk(r.Body)
	}
	return deps
}

// Component installs the module as an annotated component in a dataflow
// graph — the white-box bridge: the module's extracted annotations, lineage
// and output schemas flow into the Blazes analysis with no manual
// annotation file.
func (a *ModuleAnalysis) Component(g *dataflow.Graph, rep bool) *dataflow.Component {
	comp := g.Component(a.Module.Name)
	comp.Rep = rep
	comp.Deps = a.Deps
	if comp.OutSchema == nil {
		comp.OutSchema = map[string]fd.AttrSet{}
	}
	maps.Copy(comp.OutSchema, a.OutSchema)
	for _, p := range a.Paths {
		comp.AddPath(p.From, p.To, p.Ann)
	}
	return comp
}
