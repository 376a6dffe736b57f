package dataflow

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
)

// ifaceTable is the interface-level view of one dataflow graph (Section
// V-A, footnote 3: cycles are detected over paths, not components) with
// every (component, interface, direction) interned to a dense int32 id in
// (component, interface, in-before-out) order. A component path contributes
// an IN→OUT edge and an internal stream an OUT→IN edge. Everything after
// the interning step is flat slices indexed by node, path or stream id.
type ifaceTable struct {
	comps     []*Component // name order
	compStart []int32      // component → its first node id; len(comps)+1
	nodeComp  []int32      // node → component
	nodeIface []string     // node → interface name
	nodeOut   []bool       // node → direction

	// Paths are numbered component by component in declaration order:
	// pathOff[c]+k is the k-th path of component c.
	pathOff         []int32 // len(comps)+1
	pathIn, pathOut []int32 // path → its IN and OUT node

	streams  []*Stream // declaration order; the index is the stream id
	from, to []int32   // stream → producer OUT / consumer IN node, -1 when external

	succ csr // node → successor nodes

	// Built by compile, not by internIfaces.
	into  csr // IN node → ids of the streams arriving, declaration order
	outOf csr // OUT node → ids of the streams leaving, declaration order
	feed  csr // OUT node → the paths ending at it, declaration order
}

// ifaceKey orders one component's interface nodes.
type ifaceKey struct {
	name string
	out  bool
}

func (a ifaceKey) compare(b ifaceKey) int {
	if c := cmp.Compare(a.name, b.name); c != 0 {
		return c
	}
	switch {
	case a.out == b.out:
		return 0
	case b.out:
		return -1
	default:
		return 1
	}
}

// internIfaces builds the table for g. On a graph that passes Validate
// every stream endpoint resolves to a node; on one that does not, which
// lint also reads, an endpoint that resolves to none is -1 like an external
// one. The component-name map built here is the only map the compiled
// structure goes through.
func internIfaces(g *Graph) *ifaceTable {
	comps := g.Components()
	t := &ifaceTable{
		comps:     comps,
		compStart: make([]int32, len(comps)+1),
		pathOff:   make([]int32, len(comps)+1),
		streams:   slices.Clone(g.Streams()),
	}
	compIndex := make(map[string]int32, len(comps))
	nNodes := 0
	for i, c := range comps {
		compIndex[c.Name] = int32(i)
		t.pathOff[i+1] = t.pathOff[i] + int32(len(c.Paths))
		nNodes += len(c.ins) + len(c.outs)
	}
	nPaths := int(t.pathOff[len(comps)])
	t.pathIn = make([]int32, nPaths)
	t.pathOut = make([]int32, nPaths)
	t.nodeComp = make([]int32, 0, nNodes)
	t.nodeIface = make([]string, 0, nNodes)
	t.nodeOut = make([]bool, 0, nNodes)

	for i, c := range comps {
		t.compStart[i] = int32(len(t.nodeComp))
		// Merge the component's two sorted interface lists; of an input
		// and an output with one name the input comes first.
		ins, outs := c.ins, c.outs
		for len(ins) > 0 || len(outs) > 0 {
			out := len(ins) == 0 || (len(outs) > 0 && outs[0] < ins[0])
			t.nodeComp = append(t.nodeComp, int32(i))
			t.nodeOut = append(t.nodeOut, out)
			if out {
				t.nodeIface, outs = append(t.nodeIface, outs[0]), outs[1:]
			} else {
				t.nodeIface, ins = append(t.nodeIface, ins[0]), ins[1:]
			}
		}
		t.compStart[i+1] = int32(len(t.nodeComp))
		for k, p := range c.Paths {
			j := t.pathOff[i] + int32(k)
			t.pathIn[j] = t.node(int32(i), p.From, false)
			t.pathOut[j] = t.node(int32(i), p.To, true)
		}
	}

	t.from = make([]int32, len(t.streams))
	t.to = make([]int32, len(t.streams))
	src := append(make([]int32, 0, nPaths+len(t.streams)), t.pathIn...)
	dst := append(make([]int32, 0, nPaths+len(t.streams)), t.pathOut...)
	for i, s := range t.streams {
		t.from[i], t.to[i] = -1, -1
		if c, ok := compIndex[s.FromComp]; ok && !s.IsSource() {
			t.from[i] = t.node(c, s.FromIface, true)
		}
		if c, ok := compIndex[s.ToComp]; ok && !s.IsSink() {
			t.to[i] = t.node(c, s.ToIface, false)
		}
		if t.from[i] >= 0 && t.to[i] >= 0 {
			src = append(src, t.from[i])
			dst = append(dst, t.to[i])
		}
	}
	t.succ = groupBy(nNodes, src, dst)
	return t
}

// indexStreams files the streams under the interface nodes they arrive at
// and leave (into, outOf). internIfaces leaves them, and feed, to compile:
// lint reads neither.
func (t *ifaceTable) indexStreams() {
	t.into = groupBy(len(t.nodeOut), t.to, nil)
	t.outOf = groupBy(len(t.nodeOut), t.from, nil)
}

// key returns node v's place among its component's interface nodes.
func (t *ifaceTable) key(v int32) ifaceKey { return ifaceKey{t.nodeIface[v], t.nodeOut[v]} }

// node returns the id of component c's interface node, or -1.
func (t *ifaceTable) node(c int32, iface string, out bool) int32 {
	lo, hi := t.compStart[c], t.compStart[c+1]
	want := ifaceKey{iface, out}
	i, found := sort.Find(int(hi-lo), func(i int) int {
		return want.compare(t.key(lo + int32(i)))
	})
	if !found {
		return -1
	}
	return lo + int32(i)
}

// component returns the index of the named component.
func (t *ifaceTable) component(name string) (int32, bool) {
	i, found := sort.Find(len(t.comps), func(i int) int { return cmp.Compare(name, t.comps[i].Name) })
	return int32(i), found
}

// topoOrder returns the OUT nodes in topological order (Kahn's algorithm
// with a min-heap as the ready set, so each pop yields the least ready
// node in less() order) and every node's rank in that order, -1 for IN
// nodes. ok is false when the graph has a cycle.
func (t *ifaceTable) topoOrder() (order, rank []int32, ok bool) {
	n := len(t.nodeOut)
	indeg := make([]int32, n)
	for _, w := range t.succ.val {
		indeg[w]++
	}
	outs := 0
	rank = make([]int32, n)
	var ready idHeap
	for v := range n {
		rank[v] = -1
		if t.nodeOut[v] {
			outs++
		}
		if indeg[v] == 0 {
			ready.push(int32(v))
		}
	}
	order = make([]int32, 0, outs)
	for len(ready) > 0 {
		v := ready.pop()
		if t.nodeOut[v] {
			rank[v] = int32(len(order))
			order = append(order, v)
		}
		for _, w := range t.succ.at(v) {
			if indeg[w]--; indeg[w] == 0 {
				ready.push(w)
			}
		}
	}
	return order, rank, len(order) == outs
}

// structure is the compiled form of one topology version of a graph:
// built once by compile, read by the propagation engine, by synthesis and
// by the report projection, brought up to date in place when a tap comes or
// goes (addTap, dropTap) and thrown away when the topology changes in any
// other way. The embedded table describes the collapsed graph — the one
// labels are propagated over.
type structure struct {
	g         *Graph
	collapsed *Graph // g itself when g has no interface-level cycle
	// cyclic holds the components of g that lie on an interface-level
	// cycle: their annotations feed the collapse itself.
	cyclic map[string]bool

	*ifaceTable
	order []int32 // OUT nodes in topological order
	rank  []int32 // node → position in order, -1 for IN nodes
	// outRanks files the ranks under their component, ascending: the
	// order in which a component's output interfaces are derived.
	outRanks csr
	byName   []int32 // stream ids in name order
	namePos  []int32 // stream id → its position in byName
	// verdictOver lists, in declaration order, the streams the verdict
	// ranges over: the sinks, or every stream when there is no sink.
	verdictOver []int32
}

// compile validates g and builds its structure: intern, condense, collapse
// the cycles (re-interning the rewritten graph), order.
func compile(g *Graph) (*structure, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	st := &structure{g: g, collapsed: g, ifaceTable: internIfaces(g)}
	if cy := findCycles(st.ifaceTable); cy != nil {
		st.indexStreams() // collapse reads the group boundaries through them
		st.collapsed, st.cyclic = collapse(g, st.ifaceTable, cy)
		if err := st.collapsed.Validate(); err != nil {
			return nil, fmt.Errorf("dataflow: internal error: collapsed graph invalid: %w", err)
		}
		st.ifaceTable = internIfaces(st.collapsed)
	}
	st.indexStreams()
	st.feed = groupBy(len(st.nodeOut), st.pathOut, nil)

	var ok bool
	if st.order, st.rank, ok = st.topoOrder(); !ok {
		return nil, errors.New("dataflow: internal error: collapsed graph still has a cycle")
	}
	comps := make([]int32, len(st.order))
	for r, v := range st.order {
		comps[r] = st.nodeComp[v]
	}
	st.outRanks = groupBy(len(st.comps), comps, nil)

	st.byName = make([]int32, len(st.streams))
	for id, s := range st.streams {
		st.byName[id] = int32(id)
		if s.IsSink() {
			st.verdictOver = append(st.verdictOver, int32(id))
		}
	}
	if len(st.verdictOver) == 0 {
		st.verdictOver = slices.Clone(st.byName)
	}
	slices.SortStableFunc(st.byName, func(a, b int32) int {
		return cmp.Compare(st.streams[a].Name, st.streams[b].Name)
	})
	st.namePos = make([]int32, len(st.byName))
	for pos, id := range st.byName {
		st.namePos[id] = int32(pos)
	}
	return st, nil
}

// streamNamed returns the id of the collapsed graph's stream with the given
// name, or -1 when the collapse dropped the stream or g has none of that
// name. A validated graph declares each name once, and addTap enters no
// name the structure holds.
func (st *structure) streamNamed(name string) int32 {
	i, found := sort.Find(len(st.byName), func(i int) int {
		return cmp.Compare(name, st.streams[st.byName[i]].Name)
	})
	if !found {
		return -1
	}
	return st.byName[i]
}

// A tap is a stream with one external end and the other on a component
// outside every cycle. It touches no edge between interface nodes, so the
// nodes, the paths, succ, the strongly connected components and with them
// the collapse of everything else, and the order — Kahn's ready set never
// sees a stream without two interface ends — are what they are without it:
// a tap only joins or leaves the stream tables, and addTap and dropTap leave
// them as compile would have filled them.

// tapNode returns the interface node the tap s hangs on, or -1 when s is
// not a tap (or names an interface its component does not have). s may be
// the collapsed graph's copy of a stream: a supernode is no component of g.
func (st *structure) tapNode(s *Stream) int32 {
	if s.IsSource() == s.IsSink() {
		return -1
	}
	comp, iface := s.FromComp, s.FromIface
	if s.IsSource() {
		comp, iface = s.ToComp, s.ToIface
	}
	c, ok := st.component(comp)
	if !ok || st.cyclic[comp] || st.g.Lookup(comp) == nil {
		return -1
	}
	return st.node(c, iface, s.IsSink())
}

// verdictOverSinks reports whether verdictOver lists the sinks rather than,
// for want of one, every stream.
func (st *structure) verdictOverSinks() bool {
	return len(st.verdictOver) > 0 && st.streams[st.verdictOver[0]].IsSink()
}

// addTap enters the tap s on node v — the stream g declared last, under a
// name no other stream has — and returns its id and its position in name
// order.
func (st *structure) addTap(s *Stream, v int32) (id, pos int32) {
	id = int32(len(st.streams))
	from, to := int32(-1), int32(-1)
	if s.IsSink() {
		from = v
		st.outOf.insert(v, id)
	} else {
		to = v
		st.into.insert(v, id)
	}
	st.streams, st.from, st.to = append(st.streams, s), append(st.from, from), append(st.to, to)
	if st.collapsed != st.g {
		st.collapsed.streams = append(st.collapsed.streams, s)
		st.collapsed.byName[s.Name] = s
	}

	at, _ := sort.Find(len(st.byName), func(i int) int {
		return cmp.Compare(s.Name, st.streams[st.byName[i]].Name)
	})
	pos = int32(at)
	for i, p := range st.namePos {
		if p >= pos {
			st.namePos[i] = p + 1
		}
	}
	st.byName, st.namePos = slices.Insert(st.byName, at, id), append(st.namePos, pos)

	overSinks := st.verdictOverSinks()
	if s.IsSink() && !overSinks {
		st.verdictOver = st.verdictOver[:0] // the first sink: the verdict is its label alone
	}
	if s.IsSink() || !overSinks {
		st.verdictOver = append(st.verdictOver, id)
	}
	return id, pos
}

// dropTap takes the tap with the given id, which g no longer declares, out
// again and returns the position in name order it had. Later streams move
// down by one id.
func (st *structure) dropTap(id int32) (pos int32) {
	if v := st.from[id]; v >= 0 {
		st.outOf.remove(v, id)
	} else {
		st.into.remove(st.to[id], id)
	}
	closeGap(st.into.val, id)
	closeGap(st.outOf.val, id)
	if st.collapsed != st.g {
		st.collapsed.RemoveStream(st.streams[id].Name)
	}
	i := int(id)
	st.streams, st.from, st.to = slices.Delete(st.streams, i, i+1), slices.Delete(st.from, i, i+1), slices.Delete(st.to, i, i+1)

	pos = st.namePos[id]
	st.byName = slices.Delete(st.byName, int(pos), int(pos)+1)
	st.namePos = slices.Delete(st.namePos, i, i+1)
	closeGap(st.byName, id)
	closeGap(st.namePos, pos)

	if at, listed := slices.BinarySearch(st.verdictOver, id); listed {
		st.verdictOver = slices.Delete(st.verdictOver, at, at+1)
	}
	closeGap(st.verdictOver, id)
	if len(st.verdictOver) == 0 { // the last sink went: the verdict ranges over every stream
		for i := range st.streams {
			st.verdictOver = append(st.verdictOver, int32(i))
		}
	}
	return pos
}
