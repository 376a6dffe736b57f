package dataflow

import (
	"slices"
	"strings"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Cycle handling (Section V-A). Blazes "reduces each cycle in the graph to a
// single node with a collapsed label by selecting the label of highest
// severity among the cycle members". Footnote 3 of the paper makes the
// granularity explicit: cycles are detected over *paths*, not components —
// the Cache participates in a cycle through its gossip self-edge, but Cache
// and Report form no cycle because Cache provides no internal path from its
// response input to its request output.
//
// The strongly connected components of the interface table (one node per
// (component, interface, direction); paths are IN→OUT edges, streams OUT→IN
// edges) are therefore the paper's cycles.

// cycles is the cycle structure of an interface table, the one definition
// of a cycle that the collapse and lint's BLZ006 both read.
type cycles struct {
	scc  []int32 // node → its strongly connected component
	size []int32 // strongly connected component → its node count
	// group maps each component on a cycle to the least component of its
	// group — the components that share a cycle, transitively — and every
	// other component to -1. members lists each group's components under
	// that least one, ascending, i.e. in name order.
	group   []int32
	members csr
}

// findCycles condenses t and groups the components on its cycles. It
// returns nil when t has no cycle.
func findCycles(t *ifaceTable) *cycles {
	scc, n := tarjanSCC(len(t.nodeComp), t.succ)
	// Edges alternate IN→OUT→IN, so a node is on a cycle exactly when its
	// strongly connected component has a second member.
	size := make([]int32, n)
	for _, id := range scc {
		size[id]++
	}
	if !slices.ContainsFunc(size, func(s int32) bool { return s > 1 }) {
		return nil
	}
	cy := &cycles{scc: scc, size: size, group: make([]int32, len(t.comps))}
	group := cy.group
	for c := range group {
		group[c] = -1
	}
	for v, c := range t.nodeComp {
		if size[scc[v]] > 1 {
			group[c] = c
		}
	}
	// The streams of a strongly connected component join all its
	// components, so union the two ends of every stream on a cycle, the
	// lesser root becoming the root of both.
	find := func(c int32) int32 {
		for group[c] != c {
			group[c] = group[group[c]]
			c = group[c]
		}
		return c
	}
	for i := range t.streams {
		if a, b := t.from[i], t.to[i]; a >= 0 && b >= 0 && cy.onCycle(a, b) {
			ra, rb := find(t.nodeComp[a]), find(t.nodeComp[b])
			group[max(ra, rb)] = min(ra, rb)
		}
	}
	for c, r := range group {
		if r >= 0 {
			group[c] = find(int32(c))
		}
	}
	cy.members = groupBy(len(group), group, nil)
	return cy
}

// onCycle reports whether nodes a and b lie on one cycle.
func (cy *cycles) onCycle(a, b int32) bool {
	return cy.scc[a] == cy.scc[b] && cy.size[cy.scc[a]] > 1
}

// collapse rewrites g so that every interface-level cycle is collapsed:
// intra-cycle streams are dropped and every path on a cycle is upgraded to
// the highest-severity annotation among the cycle's paths. Cycles spanning
// several components merge those components into one supernode whose
// external paths connect reachable (external input, external output) pairs.
// t is g's interface table, its streams indexed, and cy its cycles.
//
// The result shares every component and stream the collapse leaves alone
// with g, so in-place annotation and seal edits of those need no mirroring;
// only components on a cycle and streams touching a supernode are copies.
// It also returns the components of g that lie on a cycle.
func collapse(g *Graph, t *ifaceTable, cy *cycles) (*Graph, map[string]bool) {
	nComps := len(t.comps)
	pathOnCycle := func(j int32) bool { return cy.onCycle(t.pathIn[j], t.pathOut[j]) }

	// Per group: the collapsed annotation, the maximum over the paths on
	// its cycles, components in name order.
	groupAnn := make([]core.Annotation, nComps)
	annSet := make([]bool, nComps)
	cyclic := map[string]bool{}
	for i, c := range t.comps {
		r := cy.group[i]
		if r < 0 {
			continue
		}
		cyclic[c.Name] = true
		for k, p := range c.Paths {
			if !pathOnCycle(t.pathOff[i] + int32(k)) {
				continue
			}
			if !annSet[r] {
				groupAnn[r], annSet[r] = p.Ann, true
			} else {
				groupAnn[r] = maxAnnotation(groupAnn[r], p.Ann)
			}
		}
	}
	// super maps each component merged into a supernode (a group of two or
	// more) to its group, every other component to -1.
	super := make([]int32, nComps)
	for i, r := range cy.group {
		super[i] = -1
		if r >= 0 && len(cy.members.at(r)) > 1 {
			super[i] = r
		}
	}
	superOfNode := func(v int32) int32 {
		if v < 0 {
			return -1
		}
		return super[t.nodeComp[v]]
	}

	ng := &Graph{
		Name:       g.Name,
		components: make(map[string]*Component, nComps),
		streams:    make([]*Stream, 0, len(t.streams)),
		byName:     make(map[string]*Stream, len(t.streams)),
	}

	// Components outside every cycle are shared; a component with a
	// self-cycle is copied with its cyclic paths upgraded to the group
	// annotation.
	for i, c := range t.comps {
		switch {
		case super[i] >= 0:
		case cy.group[i] < 0:
			ng.components[c.Name] = c
		default:
			nc := ng.Component(c.Name)
			nc.Rep, nc.Deps, nc.OutSchema = c.Rep, c.Deps, c.OutSchema
			nc.Coordination = c.Coordination
			for k, p := range c.Paths {
				ann := p.Ann
				if pathOnCycle(t.pathOff[i] + int32(k)) {
					ann = groupAnn[cy.group[i]]
				}
				nc.AddPath(p.From, p.To, ann)
			}
		}
	}

	// Build one supernode per group of two or more components.
	superName := make([]string, nComps)
	qualified := func(v int32) string { return t.comps[t.nodeComp[v]].Name + "." + t.nodeIface[v] }
	seen := make([]int32, len(t.nodeComp)) // node → the BFS that last reached it
	var ins, outs, queue []int32
	bfs := int32(0)
	for r := int32(0); int(r) < nComps; r++ {
		comps := cy.members.at(r) // ascending, i.e. in name order
		if len(comps) < 2 {
			continue
		}
		names := make([]string, len(comps))
		for i, c := range comps {
			names[i] = t.comps[c].Name
		}
		superName[r] = "scc+" + strings.Join(names, "+")
		sn := ng.Component(superName[r])
		deps := fd.NewSet()
		// The group's boundary: inputs fed by a source, from outside the
		// group or by nothing at all, and outputs with a stream leaving it.
		ins, outs = ins[:0], outs[:0]
		for _, c := range comps {
			mc := t.comps[c]
			sn.Rep = sn.Rep || mc.Rep
			sn.Coordination = max(sn.Coordination, mc.Coordination)
			if mc.Deps != nil {
				for _, f := range mc.Deps.FDs() {
					deps.Add(f)
				}
			}
			for v := t.compStart[c]; v < t.compStart[c+1]; v++ {
				if t.nodeOut[v] {
					for _, s := range t.outOf.at(v) {
						if superOfNode(t.to[s]) != r {
							outs = append(outs, v)
							break
						}
					}
					continue
				}
				external := len(t.into.at(v)) == 0
				for _, s := range t.into.at(v) {
					if superOfNode(t.from[s]) != r {
						external = true
					}
				}
				if external {
					ins = append(ins, v)
				}
			}
		}
		if deps.Len() > 0 {
			sn.Deps = deps
		}
		// An external path per (input, output) pair connected through the
		// group's own paths and internal streams.
		ann := groupAnn[r]
		for _, in := range ins {
			bfs++
			seen[in] = bfs
			queue = append(queue[:0], in)
			for len(queue) > 0 {
				v := queue[0]
				queue = queue[1:]
				for _, w := range t.succ.at(v) {
					if seen[w] != bfs && superOfNode(w) == r {
						seen[w] = bfs
						queue = append(queue, w)
					}
				}
			}
			for _, out := range outs {
				if seen[out] == bfs {
					sn.AddPath(qualified(in), qualified(out), ann)
				}
			}
		}
		if len(sn.Paths) == 0 {
			// Degenerate sink cycle: expose state so validation passes.
			for _, in := range ins {
				sn.AddPath(qualified(in), "state", ann)
			}
		}
	}

	// Rewire streams, dropping those on cycles and those internal to a
	// supernode.
	for i, s := range t.streams {
		from, to := t.from[i], t.to[i]
		internal := from >= 0 && to >= 0
		if internal && cy.onCycle(from, to) {
			continue
		}
		fs, ts := superOfNode(from), superOfNode(to)
		if internal && fs >= 0 && fs == ts {
			continue
		}
		ns := s
		if fs >= 0 || ts >= 0 {
			cp := *s
			ns = &cp
			if fs >= 0 {
				ns.FromComp, ns.FromIface = superName[fs], qualified(from)
			}
			if ts >= 0 {
				ns.ToComp, ns.ToIface = superName[ts], qualified(to)
			}
		}
		ng.streams = append(ng.streams, ns)
		ng.byName[ns.Name] = ns
	}
	return ng, cyclic
}

// maxAnnotation returns the higher-severity annotation; on severity ties
// between order-sensitive annotations with different gates the result
// degrades to unknown partitioning.
func maxAnnotation(a, b core.Annotation) core.Annotation {
	if b.Severity() > a.Severity() {
		return b
	}
	if b.Severity() == a.Severity() && a.OrderSensitive() {
		if !a.Gate.Equal(b.Gate) || a.GateStar != b.GateStar {
			a.Gate = fd.AttrSet{}
			a.GateStar = true
		}
	}
	return a
}
