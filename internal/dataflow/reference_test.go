package dataflow

// The reference oracle: the map-keyed structure builders the compiled
// structure replaced (interface graph, Tarjan condensation, cycle collapse,
// stream index), kept verbatim but for their ref prefix, plus a deliberately
// naive analysis and synthesis over them that rescans the stream list at
// every step. The differential tests pin the product against these.

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// ifaceNode identifies one side of one component interface.
type ifaceNode struct {
	comp  string
	iface string
	out   bool
}

func (n ifaceNode) String() string {
	dir := "in"
	if n.out {
		dir = "out"
	}
	return n.comp + "." + n.iface + "/" + dir
}

// refIfaceGraph is the interface-level view of a dataflow graph.
type refIfaceGraph struct {
	nodes []ifaceNode
	adj   map[ifaceNode][]ifaceNode
}

func refBuildIfaceGraph(g *Graph) *refIfaceGraph {
	ig := &refIfaceGraph{adj: map[ifaceNode][]ifaceNode{}}
	seen := map[ifaceNode]bool{}
	addNode := func(n ifaceNode) {
		if !seen[n] {
			seen[n] = true
			ig.nodes = append(ig.nodes, n)
		}
	}
	addEdge := func(a, b ifaceNode) {
		addNode(a)
		addNode(b)
		ig.adj[a] = append(ig.adj[a], b)
	}
	for _, c := range g.Components() {
		for _, p := range c.Paths {
			addEdge(ifaceNode{c.Name, p.From, false}, ifaceNode{c.Name, p.To, true})
		}
	}
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		addEdge(ifaceNode{s.FromComp, s.FromIface, true}, ifaceNode{s.ToComp, s.ToIface, false})
	}
	sort.Slice(ig.nodes, func(i, j int) bool { return less(ig.nodes[i], ig.nodes[j]) })
	// sorts each adjacency list in place; the lists are disjoint per key
	for _, vs := range ig.adj {
		sort.Slice(vs, func(i, j int) bool { return less(vs[i], vs[j]) })
	}
	return ig
}

func less(a, b ifaceNode) bool {
	if a.comp != b.comp {
		return a.comp < b.comp
	}
	if a.iface != b.iface {
		return a.iface < b.iface
	}
	return !a.out && b.out
}

// refIfaceSCC is the condensation of an interface graph.
type refIfaceSCC struct {
	id      map[ifaceNode]int
	members [][]ifaceNode
	cyclic  []bool
}

// refCondenseIfaces runs Tarjan's algorithm (iteratively deterministic via the
// sorted node order) over the interface graph.
func refCondenseIfaces(ig *refIfaceGraph) *refIfaceSCC {
	res := &refIfaceSCC{id: map[ifaceNode]int{}}
	index := map[ifaceNode]int{}
	low := map[ifaceNode]int{}
	onStack := map[ifaceNode]bool{}
	var stack []ifaceNode
	next := 0

	var strongconnect func(v ifaceNode)
	strongconnect = func(v ifaceNode) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range ig.adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []ifaceNode
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			sort.Slice(comp, func(i, j int) bool { return less(comp[i], comp[j]) })
			id := len(res.members)
			for _, m := range comp {
				res.id[m] = id
			}
			res.members = append(res.members, comp)
			res.cyclic = append(res.cyclic, len(comp) > 1)
		}
	}
	for _, v := range ig.nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return res
}

// refCollapseSCCs rewrites g so that every interface-level cycle is collapsed:
// intra-cycle streams are dropped and every path on a cycle is upgraded to
// the highest-severity annotation among the cycle's paths. Cycles spanning
// several components merge those components into one supernode whose
// external paths connect reachable (external input, external output) pairs.
// Acyclic graphs are returned unchanged (same object).
func refCollapseSCCs(g *Graph) *Graph {
	ig := refBuildIfaceGraph(g)
	sccs := refCondenseIfaces(ig)

	anyCyclic := false
	for _, c := range sccs.cyclic {
		if c {
			anyCyclic = true
			break
		}
	}
	if !anyCyclic {
		return g
	}

	// Union components that share a cyclic SCC.
	groupOf := map[string]string{} // component → group representative
	find := func(c string) string {
		for groupOf[c] != "" && groupOf[c] != c {
			c = groupOf[c]
		}
		return c
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra == "" {
			ra = a
		}
		if rb == "" {
			rb = b
		}
		if ra != rb {
			groupOf[rb] = ra
		}
		groupOf[ra] = ra
	}
	cyclicComp := map[string]bool{}
	for id, members := range sccs.members {
		if !sccs.cyclic[id] {
			continue
		}
		for _, m := range members {
			cyclicComp[m.comp] = true
			union(members[0].comp, m.comp)
		}
	}

	// Gather the paths and streams lying on cycles, plus the per-group
	// collapsed annotation.
	cycleStream := map[string]bool{}
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		a := ifaceNode{s.FromComp, s.FromIface, true}
		b := ifaceNode{s.ToComp, s.ToIface, false}
		if sccs.id[a] == sccs.id[b] && sccs.cyclic[sccs.id[a]] {
			cycleStream[s.Name] = true
		}
	}
	onCycle := func(comp string, p Path) bool {
		a := ifaceNode{comp, p.From, false}
		b := ifaceNode{comp, p.To, true}
		return sccs.id[a] == sccs.id[b] && sccs.cyclic[sccs.id[a]]
	}
	groupAnn := map[string]core.Annotation{}
	groupAnnSet := map[string]bool{}
	for _, c := range g.Components() {
		for _, p := range c.Paths {
			if !onCycle(c.Name, p) {
				continue
			}
			rep := find(c.Name)
			if !groupAnnSet[rep] {
				groupAnn[rep] = p.Ann
				groupAnnSet[rep] = true
			} else {
				groupAnn[rep] = maxAnnotation(groupAnn[rep], p.Ann)
			}
		}
	}

	// Collect groups with ≥2 components (true supernodes).
	groupMembers := map[string][]string{}
	for _, c := range g.Components() {
		if cyclicComp[c.Name] {
			rep := find(c.Name)
			groupMembers[rep] = append(groupMembers[rep], c.Name)
		}
	}
	// sorts each member list in place; the lists are disjoint per group
	for rep := range groupMembers {
		sort.Strings(groupMembers[rep])
	}
	multi := map[string]bool{} // component → part of a multi-component group
	superOf := map[string]string{}
	for rep, members := range groupMembers {
		if len(members) > 1 {
			name := "scc+" + strings.Join(members, "+")
			for _, m := range members {
				multi[m] = true
				superOf[m] = name
			}
			_ = rep
		}
	}

	ioByGroup := refGroupBoundaries(g, superOf)

	ng := NewGraph(g.Name)

	// Copy components that are not merged into a supernode; upgrade their
	// cyclic paths (single-component self-cycles) to the group annotation.
	for _, c := range g.Components() {
		if multi[c.Name] {
			continue
		}
		nc := ng.Component(c.Name)
		nc.Rep = c.Rep
		nc.Deps = c.Deps
		nc.OutSchema = c.OutSchema
		nc.Coordination = c.Coordination
		for _, p := range c.Paths {
			ann := p.Ann
			if onCycle(c.Name, p) {
				ann = groupAnn[find(c.Name)]
			}
			nc.AddPath(p.From, p.To, ann)
		}
	}

	// Build supernodes for multi-component groups.
	// insertion order is invisible: Components() returns name order
	for rep, members := range groupMembers {
		if len(members) < 2 {
			continue
		}
		name := superOf[members[0]]
		super := ng.Component(name)
		ann := refGroupAnnFor(g, rep, members, groupAnn)
		deps := fd.NewSet()
		for _, m := range members {
			mc := g.Lookup(m)
			super.Rep = super.Rep || mc.Rep
			if mc.Coordination > super.Coordination {
				super.Coordination = mc.Coordination
			}
			if mc.Deps != nil {
				for _, f := range mc.Deps.FDs() {
					deps.Add(f)
				}
			}
		}
		if deps.Len() > 0 {
			super.Deps = deps
		}
		io := ioByGroup[name]
		reach := refGroupReachability(g, members, io.internal)
		for _, in := range io.ins {
			for _, out := range io.outs {
				if reach[[2]ifaceNode{in, out}] {
					super.AddPath(in.comp+"."+in.iface, out.comp+"."+out.iface, ann)
				}
			}
		}
		if len(super.Paths) == 0 {
			// Degenerate sink cycle: expose state so validation passes.
			for _, in := range io.ins {
				super.AddPath(in.comp+"."+in.iface, "state", ann)
			}
		}
	}

	// Rewire streams, dropping those on cycles and those internal to a
	// multi-component group.
	for _, s := range g.Streams() {
		if cycleStream[s.Name] {
			continue
		}
		fromComp, fromIface := s.FromComp, s.FromIface
		toComp, toIface := s.ToComp, s.ToIface
		if !s.IsSource() && !s.IsSink() && multi[fromComp] && multi[toComp] && superOf[fromComp] == superOf[toComp] {
			continue
		}
		if fromComp != "" && multi[fromComp] {
			fromIface = fromComp + "." + fromIface
			fromComp = superOf[fromComp]
		}
		if toComp != "" && multi[toComp] {
			toIface = toComp + "." + toIface
			toComp = superOf[toComp]
		}
		ns := ng.Connect(s.Name, fromComp, fromIface, toComp, toIface)
		ns.Seal = s.Seal
		ns.Rep = s.Rep
	}
	return ng
}

// refGroupAnnFor returns the collapsed annotation for a group, falling back to
// the max over all member paths when no path was detected on the cycle
// (defensive; should not happen).
func refGroupAnnFor(g *Graph, rep string, members []string, groupAnn map[string]core.Annotation) core.Annotation {
	if ann, ok := groupAnn[rep]; ok {
		return ann
	}
	var best core.Annotation
	first := true
	for _, m := range members {
		for _, p := range g.Lookup(m).Paths {
			if first || p.Ann.Severity() > best.Severity() {
				best, first = p.Ann, false
			}
		}
	}
	return best
}

// refGroupIO is one supernode group's stream classification: external input
// and output interfaces plus the OUT→IN stream edges internal to the group.
type refGroupIO struct {
	ins, outs []ifaceNode
	internal  [][2]ifaceNode
}

// refGroupBoundaries classifies every stream exactly once against all
// multi-component groups (superOf maps member component → supernode name),
// returning each group's external inputs — IN nodes fed by sources, fed
// from outside the group, or fed by nothing at all — external outputs, and
// internal edges. A single pass over the stream list replaces the previous
// per-group rescans, which were quadratic in the number of supernodes.
func refGroupBoundaries(g *Graph, superOf map[string]string) map[string]*refGroupIO {
	res := map[string]*refGroupIO{}
	at := func(comp string) *refGroupIO {
		name := superOf[comp]
		if name == "" {
			return nil
		}
		io := res[name]
		if io == nil {
			io = &refGroupIO{}
			res[name] = io
		}
		return io
	}
	// Interface nodes belong to exactly one group, so global dedupe maps
	// are safe across groups.
	insSeen := map[ifaceNode]bool{}
	outsSeen := map[ifaceNode]bool{}
	fedFromInside := map[ifaceNode]bool{}
	for _, s := range g.Streams() {
		sameGroup := !s.IsSource() && !s.IsSink() &&
			superOf[s.FromComp] != "" && superOf[s.FromComp] == superOf[s.ToComp]
		if !s.IsSink() {
			if io := at(s.ToComp); io != nil {
				n := ifaceNode{s.ToComp, s.ToIface, false}
				if sameGroup {
					fedFromInside[n] = true
				} else if !insSeen[n] {
					insSeen[n] = true
					io.ins = append(io.ins, n)
				}
			}
		}
		if !s.IsSource() {
			if io := at(s.FromComp); io != nil {
				n := ifaceNode{s.FromComp, s.FromIface, true}
				if sameGroup {
					io.internal = append(io.internal, [2]ifaceNode{n, {s.ToComp, s.ToIface, false}})
				} else if !outsSeen[n] {
					outsSeen[n] = true
					io.outs = append(io.outs, n)
				}
			}
		}
	}
	// Member inputs fed by nothing (every incoming stream marks the node
	// in insSeen or fedFromInside) are external too.
	// appends are re-sorted below before use
	for comp := range superOf {
		for _, iface := range g.Lookup(comp).Inputs() {
			n := ifaceNode{comp, iface, false}
			if !insSeen[n] && !fedFromInside[n] {
				io := at(comp)
				insSeen[n] = true
				io.ins = append(io.ins, n)
			}
		}
	}
	// sorts each group's lists in place; the lists are disjoint per group
	for _, io := range res {
		sort.Slice(io.ins, func(i, j int) bool { return less(io.ins[i], io.ins[j]) })
		sort.Slice(io.outs, func(i, j int) bool { return less(io.outs[i], io.outs[j]) })
	}
	return res
}

// refGroupReachability computes (in, out) reachability through the group's
// internal paths and the pre-classified internal stream edges.
func refGroupReachability(g *Graph, members []string, internal [][2]ifaceNode) map[[2]ifaceNode]bool {
	adj := map[ifaceNode][]ifaceNode{}
	for _, comp := range members {
		for _, p := range g.Lookup(comp).Paths {
			adj[ifaceNode{comp, p.From, false}] = append(adj[ifaceNode{comp, p.From, false}], ifaceNode{comp, p.To, true})
		}
	}
	for _, e := range internal {
		adj[e[0]] = append(adj[e[0]], e[1])
	}
	res := map[[2]ifaceNode]bool{}
	for _, comp := range members {
		for _, iface := range g.Lookup(comp).Inputs() {
			start := ifaceNode{comp, iface, false}
			seen := map[ifaceNode]bool{start: true}
			queue := []ifaceNode{start}
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
			for n := range seen {
				if n.out {
					res[[2]ifaceNode{start, n}] = true
				}
			}
		}
	}
	return res
}

// refStreamIndex precomputes per-(component, interface) stream lists so the
// label propagation does not rescan the whole stream list at every node.
// Slices preserve declaration order, matching StreamsInto/StreamsOutOf.
type refStreamIndex struct {
	into  map[[2]string][]*Stream
	outOf map[[2]string][]*Stream
}

func refIndexStreams(g *Graph) *refStreamIndex {
	idx := &refStreamIndex{
		into:  map[[2]string][]*Stream{},
		outOf: map[[2]string][]*Stream{},
	}
	for _, s := range g.Streams() {
		if !s.IsSink() {
			k := [2]string{s.ToComp, s.ToIface}
			idx.into[k] = append(idx.into[k], s)
		}
		if !s.IsSource() {
			k := [2]string{s.FromComp, s.FromIface}
			idx.outOf[k] = append(idx.outOf[k], s)
		}
	}
	return idx
}

// StreamsInto returns the streams arriving at comp.iface. It scans every
// stream of the graph, O(streams) per call; the engine asks the compiled
// index instead (StrategyContext.StreamsInto).
func (g *Graph) StreamsInto(comp, iface string) []*Stream {
	var out []*Stream
	for _, s := range g.streams {
		if s.ToComp == comp && s.ToIface == iface {
			out = append(out, s)
		}
	}
	return out
}

// StreamsOutOf returns the streams leaving comp.iface. Like StreamsInto it
// scans every stream of the graph, O(streams) per call.
func (g *Graph) StreamsOutOf(comp, iface string) []*Stream {
	var out []*Stream
	for _, s := range g.streams {
		if s.FromComp == comp && s.FromIface == iface {
			out = append(out, s)
		}
	}
	return out
}

func TestStreamQueries(t *testing.T) {
	g := wordcountTopology(false)
	into := g.StreamsInto("Count", "words")
	if len(into) != 1 || into[0].Name != "words" {
		t.Errorf("StreamsInto = %v", into)
	}
	outof := g.StreamsOutOf("Splitter", "words")
	if len(outof) != 1 || outof[0].Name != "words" {
		t.Errorf("StreamsOutOf = %v", outof)
	}
	if g.Stream("words") == nil || g.Stream("nothere") != nil {
		t.Error("Stream lookup misbehaves")
	}
}

// refAnalysis is the result of the naive reference analysis.
type refAnalysis struct {
	g, collapsed *Graph
	labels       map[string]core.Label
	comps        map[string]*refComponent
	verdict      core.Label
}

// refComponent is one component's derivation record, as the replaced
// engine kept it: steps in propagation order, reconciliations by interface.
type refComponent struct {
	steps []core.Step
	recs  map[string]core.Reconciliation
}

// refAnalyze is the reference analysis: collapse with the map-keyed
// builders, order with the quadratic Kahn, and derive every output
// interface with full rescans of the stream list (Graph.StreamsInto and
// StreamsOutOf) — no index, no memo, nothing shared with the engine but
// the per-path calculus of package core.
func refAnalyze(g *Graph) (*refAnalysis, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cg := refCollapseSCCs(g)
	if cg != g {
		if err := cg.Validate(); err != nil {
			return nil, fmt.Errorf("dataflow: internal error: collapsed graph invalid: %w", err)
		}
	}
	ra := &refAnalysis{g: g, collapsed: cg, labels: map[string]core.Label{}, comps: map[string]*refComponent{}}
	for _, s := range cg.Streams() {
		if s.IsSource() {
			ra.labels[s.Name] = sourceLabel(s)
		}
	}
	for _, node := range outputTopoOrderQuadratic(cg) {
		comp := cg.Lookup(node.comp)
		rc := ra.comps[comp.Name]
		if rc == nil {
			rc = &refComponent{recs: map[string]core.Reconciliation{}}
			ra.comps[comp.Name] = rc
		}
		coordinated := comp.Coordination == CoordSequenced || comp.Coordination == CoordDynamicOrder ||
			comp.Coordination == CoordQuorumOrder
		var merged []core.Label
		for _, p := range comp.PathsTo(node.iface) {
			ann := p.Ann
			if coordinated && ann.OrderSensitive() {
				ann = core.Annotation{Confluent: true, Write: ann.Write}
			}
			var in []core.Label
			for _, s := range cg.StreamsInto(comp.Name, p.From) {
				if l, ok := ra.labels[s.Name]; ok {
					in = append(in, l)
				} else {
					in = append(in, core.Async)
				}
			}
			if len(in) == 0 {
				in = append(in, core.Async)
			}
			for _, l := range in {
				step := core.InferInfo(l, core.PathInfo{Ann: ann, Deps: comp.Deps})
				rc.steps = append(rc.steps, step)
				merged = append(merged, step.Out)
			}
		}
		rep := comp.Rep
		for _, s := range cg.StreamsOutOf(comp.Name, node.iface) {
			rep = rep || s.Rep
		}
		var outSchema fd.AttrSet
		if comp.OutSchema != nil {
			outSchema = comp.OutSchema[node.iface]
		}
		rec := core.ReconcileWithSchema(merged, rep, comp.Deps, outSchema)
		rc.recs[node.iface] = rec
		out := rec.Output
		if comp.Coordination == CoordDynamicOrder && out.Severity() < core.Run.Severity() {
			out = core.Run
		}
		for _, s := range cg.StreamsOutOf(comp.Name, node.iface) {
			ra.labels[s.Name] = out
		}
	}

	found := false
	consider := func(sinksOnly bool) {
		for _, s := range cg.Streams() {
			l, ok := ra.labels[s.Name]
			if !ok || (sinksOnly && !s.IsSink()) {
				continue
			}
			if !found || l.Severity() > ra.verdict.Severity() {
				ra.verdict, found = l, true
			}
		}
	}
	if consider(true); !found {
		consider(false)
	}
	if !found {
		ra.verdict = core.Async
	}
	return ra, nil
}

// explain renders the reference analysis in the format of Analysis.Explain.
func (ra *refAnalysis) explain() string {
	var b strings.Builder
	fmt.Fprintf(&b, "dataflow %q\n", ra.g.Name)
	names := make([]string, 0, len(ra.comps))
	for n := range ra.comps {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		rc := ra.comps[n]
		fmt.Fprintf(&b, "\ncomponent %s\n", n)
		for _, st := range rc.steps {
			fmt.Fprintf(&b, "  %s\n", st)
		}
		ifaces := make([]string, 0, len(rc.recs))
		for iface := range rc.recs {
			ifaces = append(ifaces, iface)
		}
		sort.Strings(ifaces)
		for _, iface := range ifaces {
			fmt.Fprintf(&b, "  output %s: %s\n", iface, indent(rc.recs[iface].String(), "  "))
		}
	}
	fmt.Fprintf(&b, "\nstreams\n")
	streams := make([]string, 0, len(ra.labels))
	for s := range ra.labels {
		streams = append(streams, s)
	}
	sort.Strings(streams)
	for _, s := range streams {
		fmt.Fprintf(&b, "  %-20s %s\n", s, ra.labels[s])
	}
	fmt.Fprintf(&b, "\nverdict: %s\n", ra.verdict)
	return b.String()
}

// refSealPlan is the sealing applicability check the index-backed sealPlan
// replaced: one Graph.StreamsInto scan per rendezvousing interface.
func refSealPlan(ra *refAnalysis, comp *Component) (map[string]fd.AttrSet, bool) {
	writeIfaces := map[string]bool{}
	for _, p := range comp.Paths {
		if p.Ann.Write {
			writeIfaces[p.From] = true
		}
	}
	keys := map[string]fd.AttrSet{}
	checkIface := func(iface string, gate core.Annotation) bool {
		streams := ra.collapsed.StreamsInto(comp.Name, iface)
		if len(streams) == 0 {
			return false
		}
		for _, s := range streams {
			l := ra.labels[s.Name]
			if l.Kind != core.LSeal || !gate.SealCompatible(l.Key, comp.Deps) {
				return false
			}
			keys[s.Name] = l.Key
		}
		return true
	}
	found := false
	for _, p := range comp.Paths {
		if !p.Ann.OrderSensitive() {
			continue
		}
		found = true
		if p.Ann.GateStar || p.Ann.Gate.IsEmpty() {
			return nil, false
		}
		if p.Ann.Write {
			if !checkIface(p.From, p.Ann) {
				return nil, false
			}
			continue
		}
		rendezvous := slices.Sorted(maps.Keys(writeIfaces))
		if len(rendezvous) == 0 {
			rendezvous = []string{p.From}
		}
		for _, iface := range rendezvous {
			if !checkIface(iface, p.Ann) {
				return nil, false
			}
		}
	}
	if !found || len(keys) == 0 {
		return nil, false
	}
	return keys, true
}

// refPlan is what each strategy decides for one flagged
// component, written against the reference analysis: the mechanism, the
// seal keys or ordered inputs, and whether the strategy applies at all.
func refPlan(ra *refAnalysis, strategy string, comp *Component, origin, preferSequencing bool) (Strategy, bool) {
	st := Strategy{Component: comp.Name}
	switch strategy {
	case StrategySealing, StrategyPartitionSealing:
		st.Mechanism = CoordSealed
		if strategy == StrategyPartitionSealing {
			st.Mechanism = CoordPartitionSealed
		}
		keys, ok := refSealPlan(ra, comp)
		if !ok {
			if origin {
				return Strategy{}, false
			}
			keys = map[string]fd.AttrSet{}
			for _, p := range comp.Paths {
				for _, s := range ra.collapsed.StreamsInto(comp.Name, p.From) {
					if l := ra.labels[s.Name]; l.Kind == core.LSeal {
						keys[s.Name] = l.Key
					}
				}
			}
		}
		st.SealKeys = keys
	case StrategyOrdering, StrategyQuorumOrdering, StrategySequencing:
		if !origin {
			return Strategy{}, false
		}
		st.Mechanism = CoordDynamicOrder
		if strategy == StrategyQuorumOrdering {
			st.Mechanism = CoordQuorumOrder
		} else if preferSequencing || strategy == StrategySequencing {
			st.Mechanism = CoordSequenced
		}
		for _, in := range comp.Inputs() {
			for _, s := range ra.collapsed.StreamsInto(comp.Name, in) {
				st.Inputs = append(st.Inputs, s.Name)
			}
		}
		sort.Strings(st.Inputs)
	default:
		panic("refPlan: unknown strategy " + strategy)
	}
	return st, true
}

// refSynthesize is Synthesize over the reference analysis: flag the
// components where an anomaly originates or a seal is consumed, then take
// the first of preferred strategy, sealing, ordering that applies. Reasons
// are prose, not decisions, and are left out. It decides from the
// (strategy, sequencing) pair the public API took before the preference
// list replaced it — the flag turns the ordering strategy's M2 into M1 and
// touches nothing else — where the product is fed sequencingList's
// translation, so comparing the two pins that every old setting still
// means what it meant.
func refSynthesize(ra *refAnalysis, strategy string, preferSequencing bool) []Strategy {
	chain := []string{StrategySealing, StrategyOrdering}
	if strategy != "" {
		chain = append([]string{strategy}, chain...)
	}
	var out []Strategy
	for _, comp := range ra.collapsed.Components() {
		rc := ra.comps[comp.Name]
		if comp.Coordination != CoordNone || rc == nil {
			continue
		}
		added, fired, consumed := false, false, false
		for _, rec := range rc.recs {
			hasND := false
			for _, l := range rec.Input {
				hasND = hasND || l.Kind == core.LNDRead
			}
			for _, l := range rec.Added {
				added = added || l.Severity() >= core.Run.Severity()
				consumed = consumed || (hasND && l.Equal(core.Async))
			}
		}
		for _, st := range rc.steps {
			switch st.Rule {
			case core.Rule1, core.Rule2, core.Rule4, core.Rule1Seal:
				fired = fired || st.In.Kind == core.LAsync || st.In.Kind == core.LSeal
			case core.RuleP:
				consumed = consumed || (st.In.Kind == core.LSeal && st.Ann.OrderSensitive())
			}
		}
		origin := added && fired
		if !origin && !consumed {
			continue
		}
		for _, name := range chain {
			if st, ok := refPlan(ra, name, comp, origin, preferSequencing); ok {
				out = append(out, st)
				break
			}
		}
	}
	return out
}

// sequencingList is the migration rule for the retired -sequencing flag:
// the chain [strategy?, sealing, ordering] with sequencing substituted for
// ordering wherever it stands, so `-sequencing` alone is "sealing,sequencing"
// and `-strategy X -sequencing` is "X',sealing,sequencing".
func sequencingList(strategy string, sequencing bool) []string {
	var prefer []string
	if strategy != "" {
		prefer = append(prefer, strategy)
	}
	if !sequencing {
		return prefer
	}
	prefer = append(prefer, StrategySealing, StrategyOrdering)
	for i, name := range prefer {
		if name == StrategyOrdering {
			prefer[i] = StrategySequencing
		}
	}
	return prefer
}

// renderGraph spells out everything the analysis reads from a graph, so two
// graphs that render alike analyze alike.
func renderGraph(g *Graph) string {
	var b strings.Builder
	for _, c := range g.Components() {
		fmt.Fprintf(&b, "component %s rep=%v coord=%v\n", c.Name, c.Rep, c.Coordination)
		if c.Deps != nil {
			fmt.Fprintf(&b, "  deps %v\n", c.Deps.FDs())
		}
		for _, iface := range c.Outputs() {
			if schema, ok := c.OutSchema[iface]; ok {
				fmt.Fprintf(&b, "  schema %s (%s)\n", iface, schema)
			}
		}
		for _, p := range c.Paths {
			fmt.Fprintf(&b, "  path %s -> %s %s\n", p.From, p.To, p.Ann)
		}
	}
	for _, s := range g.Streams() {
		fmt.Fprintf(&b, "stream %s %s.%s -> %s.%s seal=(%s) rep=%v\n",
			s.Name, s.FromComp, s.FromIface, s.ToComp, s.ToIface, s.Seal, s.Rep)
	}
	return b.String()
}

func streamNames(streams []*Stream) []string {
	out := make([]string, len(streams))
	for i, s := range streams {
		out[i] = s.Name
	}
	return out
}

// diffReference holds every layer of the compiled structure, the analysis
// over it and synthesis to the reference oracle on one graph, and describes
// the first difference.
func diffReference(g *Graph) error {
	// The interface table of g itself: node order, condensation, cyclic set.
	t := internIfaces(g)
	ig := refBuildIfaceGraph(g)
	if len(t.nodeComp) != len(ig.nodes) {
		return fmt.Errorf("%d interface nodes, reference has %d", len(t.nodeComp), len(ig.nodes))
	}
	id := map[ifaceNode]int32{}
	for v, want := range ig.nodes {
		got := ifaceNode{t.comps[t.nodeComp[v]].Name, t.nodeIface[v], t.nodeOut[v]}
		if got != want {
			return fmt.Errorf("node %d is %v, reference has %v", v, got, want)
		}
		id[want] = int32(v)
	}
	scc, n := tarjanSCC(len(t.nodeComp), t.succ)
	ref := refCondenseIfaces(ig)
	if n != len(ref.members) {
		return fmt.Errorf("%d strongly connected components, reference has %d", n, len(ref.members))
	}
	wantCyclic := map[string]bool{}
	for i, members := range ref.members {
		for _, m := range members {
			if scc[id[m]] != scc[id[members[0]]] {
				return fmt.Errorf("%v and %v share a reference SCC but not ours", members[0], m)
			}
			if ref.cyclic[i] {
				wantCyclic[m.comp] = true
			}
		}
	}

	st, err := compile(g)
	if err != nil {
		return err
	}
	if fmt.Sprint(st.cyclic) != fmt.Sprint(wantCyclic) && len(st.cyclic)+len(wantCyclic) > 0 {
		return fmt.Errorf("cyclic components %v, reference has %v", st.cyclic, wantCyclic)
	}

	// The collapsed graph, its order and its stream index.
	cg := refCollapseSCCs(g)
	if (cg == g) != (st.collapsed == g) {
		return fmt.Errorf("collapse returned the graph itself: %v, reference: %v", st.collapsed == g, cg == g)
	}
	if got, want := renderGraph(st.collapsed), renderGraph(cg); got != want {
		return fmt.Errorf("collapsed graph differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	if got, want := fmt.Sprint(st.orderNodes()), fmt.Sprint(outputTopoOrderQuadratic(cg)); got != want {
		return fmt.Errorf("topological order %s, reference has %s", got, want)
	}
	idx := refIndexStreams(cg)
	for v := range int32(len(st.nodeComp)) {
		key := [2]string{st.comps[st.nodeComp[v]].Name, st.nodeIface[v]}
		want, ids := idx.into[key], st.into.at(v)
		if st.nodeOut[v] {
			want, ids = idx.outOf[key], st.outOf.at(v)
		}
		got := make([]*Stream, len(ids))
		for i, s := range ids {
			got[i] = st.streams[s]
		}
		if fmt.Sprint(streamNames(got)) != fmt.Sprint(streamNames(want)) {
			return fmt.Errorf("streams at %v (out=%v): %v, reference has %v", key, st.nodeOut[v], streamNames(got), streamNames(want))
		}
	}

	// The analysis and, for the default chain and every strategy as the
	// preferred one, with and without the retired sequencing flag,
	// synthesis: the product is fed sequencingList's translation, the
	// reference the pair itself, so no old setting changed meaning.
	a, err := Analyze(g)
	if err != nil {
		return err
	}
	ra, err := refAnalyze(g)
	if err != nil {
		return err
	}
	if got, want := a.Explain(), ra.explain(); got != want {
		return fmt.Errorf("derivation differs:\n got:\n%s\nwant:\n%s", got, want)
	}
	for _, name := range []string{"", StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyPartitionSealing} {
		for _, sequencing := range []bool{false, true} {
			got := Synthesize(a, SynthesisOptions{Prefer: sequencingList(name, sequencing)})
			for i := range got {
				got[i].Reason = ""
			}
			if want := refSynthesize(ra, name, sequencing); fmt.Sprint(got) != fmt.Sprint(want) || len(got) != len(want) {
				return fmt.Errorf("synthesis with strategy %q, sequencing %v: %v, reference has %v", name, sequencing, got, want)
			}
		}
	}
	return nil
}

// PathsTo returns the paths feeding the given output interface.
func (c *Component) PathsTo(out string) []Path {
	var res []Path
	for _, p := range c.Paths {
		if p.To == out {
			res = append(res, p)
		}
	}
	return res
}
