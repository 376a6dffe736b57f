package bloom

import (
	"fmt"
	"maps"

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
			ann, err := liveSegmentAnnotation(m, in, out, full)
			if err != nil {
				return nil, err
			}
			res.Paths = append(res.Paths, PathAnnotation{From: in, To: out, Ann: ann})
		}
	}
	return res, nil
}

// fullReachability maps each collection to the set of collections reachable
// through rules of any merge operator.
func fullReachability(m *Module) map[string]map[string]bool {
	adj := map[string][]string{}
	for _, r := range m.rules {
		for _, read := range r.Body.reads() {
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

// ruleOps summarizes the operations performed by one rule body with its
// transitive scratch expansions.
type ruleOps struct {
	nonmono bool
	// gates lists the partition subscripts of nonmonotonic ops; a nil
	// entry marks an op with unknown partitioning.
	gates []fd.AttrSet
}

// expandRuleOps computes a rule's operations, inlining the derivations of
// scratch collections it reads (they recompute each timestep, so their ops
// happen at read time). Tables, channels and interfaces are boundaries.
func expandRuleOps(m *Module, r Rule, visiting map[int]bool) ruleOps {
	ops := exprOps(r.Body)
	if r.Op == Delete {
		// Deletion is nonmonotonic with no known partitioning.
		ops.nonmono = true
		ops.gates = append(ops.gates, fd.AttrSet{})
	}
	for _, read := range r.Body.reads() {
		c := m.Collection(read)
		if c == nil || c.Kind != Scratch {
			continue
		}
		for idx, dr := range m.rules {
			if dr.Head != read || visiting[idx] {
				continue
			}
			visiting[idx] = true
			sub := expandRuleOps(m, dr, visiting)
			visiting[idx] = false
			ops.nonmono = ops.nonmono || sub.nonmono
			ops.gates = append(ops.gates, sub.gates...)
		}
	}
	return ops
}

// exprOps extracts the nonmonotonic operations (and their subscripts) of a
// single expression tree, per the paper's subscript rules: an aggregation's
// subscript is its grouping columns; an antijoin's subscript is the columns
// in its theta clause.
func exprOps(e Expr) ruleOps {
	var ops ruleOps
	switch x := e.(type) {
	case *ScanExpr:
	case *ProjectExpr:
		ops = exprOps(x.Input)
	case *SelectExpr:
		ops = exprOps(x.Input)
	case *JoinExpr:
		l, r := exprOps(x.Left), exprOps(x.Right)
		ops.nonmono = l.nonmono || r.nonmono
		ops.gates = append(l.gates, r.gates...)
	case *AntiJoinExpr:
		l, r := exprOps(x.Left), exprOps(x.Right)
		ops.nonmono = true
		var theta []string
		for _, p := range x.On {
			theta = append(theta, p[0])
		}
		ops.gates = append(append(l.gates, r.gates...), fd.NewAttrSet(theta...))
	case *GroupByExpr:
		in := exprOps(x.Input)
		ops.nonmono = true
		ops.gates = append(in.gates, fd.NewAttrSet(x.Keys...))
	case *ThresholdExpr:
		ops = exprOps(x.Input)
	}
	return ops
}

// liveSegmentAnnotation computes the C.O.W.R. annotation for in→out.
func liveSegmentAnnotation(m *Module, in, out string, full map[string]map[string]bool) (core.Annotation, error) {
	live := map[string]bool{in: true}
	queue := []string{in}
	write := false
	nonmono := false
	var gates []fd.AttrSet

	attributed := map[int]bool{}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for idx, r := range m.rules {
			if attributed[idx] {
				continue
			}
			readsCur := false
			for _, read := range r.Body.reads() {
				if read == cur {
					readsCur = true
					break
				}
			}
			if !readsCur {
				continue
			}
			// Only rules that can influence this output count.
			if r.Head != out && !full[r.Head][out] {
				continue
			}
			attributed[idx] = true
			ops := expandRuleOps(m, r, map[int]bool{})
			nonmono = nonmono || ops.nonmono
			gates = append(gates, ops.gates...)

			head := m.Collection(r.Head)
			if head == nil {
				return core.Annotation{}, fmt.Errorf("bloom: rule head %q undeclared", r.Head)
			}
			if head.Kind == Table || r.Op == Delete {
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

	if !nonmono {
		if write {
			return core.CW, nil
		}
		return core.CR, nil
	}
	gate, known := combineGates(gates)
	var ann core.Annotation
	if !known {
		if write {
			ann = core.OWStar()
		} else {
			ann = core.ORStar()
		}
	} else if write {
		ann = core.OWGate(gate.Attrs()...)
	} else {
		ann = core.ORGate(gate.Attrs()...)
	}
	return ann, nil
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
