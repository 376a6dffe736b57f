package dataflow

import (
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

// collapse rewrites g so that every interface-level cycle is collapsed:
// intra-cycle streams are dropped and every path on a cycle is upgraded to
// the highest-severity annotation among the cycle's paths. Cycles spanning
// several components merge those components into one supernode whose
// external paths connect reachable (external input, external output) pairs.
// t is g's interface table, scc its condensation and size each strongly
// connected component's member count.
//
// The result shares every component and stream the collapse leaves alone
// with g, so in-place annotation and seal edits of those need no mirroring;
// only components on a cycle and streams touching a supernode are copies.
// It also returns the components of g that lie on a cycle.
func collapse(g *Graph, t *ifaceTable, scc, size []int32) (*Graph, map[string]bool) {
	nComps := len(t.comps)
	onCycle := func(a, b int32) bool { return scc[a] == scc[b] && size[scc[a]] > 1 }
	pathOnCycle := func(j int32) bool { return onCycle(t.pathIn[j], t.pathOut[j]) }

	// Union components that share a cyclic SCC.
	group := make([]int32, nComps)
	for i := range group {
		group[i] = int32(i)
	}
	find := func(c int32) int32 {
		for group[c] != c {
			group[c] = group[group[c]]
			c = group[c]
		}
		return c
	}
	cyclicComp := make([]bool, nComps)
	first := make([]int32, len(size)) // cyclic SCC → its first member's component
	for i := range first {
		first[i] = -1
	}
	for v, c := range t.nodeComp {
		id := scc[v]
		if size[id] < 2 {
			continue
		}
		cyclicComp[c] = true
		if first[id] < 0 {
			first[id] = c
		} else if a, b := find(first[id]), find(c); a != b {
			group[b] = a
		}
	}

	// Per group: the collapsed annotation (the maximum over the paths on
	// its cycles, components in name order) and the member count.
	groupAnn := make([]core.Annotation, nComps)
	annSet := make([]bool, nComps)
	members := make([]int32, nComps)
	cyclic := map[string]bool{}
	for i, c := range t.comps {
		if !cyclicComp[i] {
			continue
		}
		cyclic[c.Name] = true
		r := find(int32(i))
		members[r]++
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
	for i := range super {
		super[i] = -1
		if r := find(int32(i)); cyclicComp[i] && members[r] > 1 {
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
		case !cyclicComp[i]:
			ng.components[c.Name] = c
		default:
			nc := ng.Component(c.Name)
			nc.Rep, nc.Deps, nc.OutSchema = c.Rep, c.Deps, c.OutSchema
			nc.Coordination = c.Coordination
			for k, p := range c.Paths {
				ann := p.Ann
				if pathOnCycle(t.pathOff[i] + int32(k)) {
					ann = groupAnn[find(int32(i))]
				}
				nc.AddPath(p.From, p.To, ann)
			}
		}
	}

	// Build one supernode per group of two or more components.
	groups := groupBy(nComps, super, nil)
	superName := make([]string, nComps)
	qualified := func(v int32) string { return t.comps[t.nodeComp[v]].Name + "." + t.nodeIface[v] }
	seen := make([]int32, len(t.nodeComp)) // node → the BFS that last reached it
	var ins, outs, queue []int32
	bfs := int32(0)
	for r := int32(0); int(r) < nComps; r++ {
		comps := groups.at(r) // ascending, i.e. in name order
		if len(comps) == 0 {
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
		if internal && onCycle(from, to) {
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
