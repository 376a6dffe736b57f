package dataflow

import (
	"cmp"
	"context"
	"slices"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Incremental is the analysis engine: a dependency-tracked, memoized label
// propagation over the compiled structure of one mutable graph. Analyze
// (the one-shot entry point) runs it cold; blazes.Session keeps it warm.
// The owner mutates the graph it registered, reports what changed through
// the Note* methods, and calls Analyze to re-derive labels.
//
// Per-output-interface derivations are memoized against their exact inputs
// (path annotations, component config, incoming stream labels). A noted
// label edit queues only the output interfaces it touches; Analyze works
// the queue in topological rank and queues an interface's consumers only
// when its derived label actually changed, so an edit costs the label chain
// it changes, not the graph. The compiled structure (validation, cycle
// collapse, topological order, stream indexes) stands through label edits,
// is patched in place when a noted stream is a tap (NoteStreamAdded,
// NoteStreamRemoved) and is compiled anew only after any other
// topology-changing mutation.
//
// Incremental is not safe for concurrent use; blazes.Session serializes
// access.
type Incremental struct {
	g *Graph

	// version counts noted mutations; analyzed is the version the last
	// completed Analyze observed. Equal versions mean the Analysis is
	// current.
	version  uint64
	analyzed uint64

	// st is the compiled structure, stale while topoDirty; a the analysis
	// over it, updated in place. complete records that a reflects a
	// finished pass over st — until then (after a rebuild, or a rebuild
	// pass that was cancelled) the next pass is a full one.
	topoDirty bool
	st        *structure
	a         *Analysis
	complete  bool

	// memo keeps up to memoVersions derivations per output interface (by
	// topological rank), most-recently-used first: the repair loop's
	// try-and-revert pattern (flip an annotation, analyze, flip it back)
	// hits the cache in both directions. Entries follow their interface,
	// by name, across a structure rebuild.
	memo [][memoVersions]*derivation

	// work is the queue of ranks awaiting re-derivation; it survives a
	// cancelled pass. carry accumulates the ranks whose derivation changed
	// and was, beside each, the derivation the last *completed* pass left
	// it; touched the streams a noted change resealed, replicated or
	// patched in; and splices the taps patched in and out. The pass that
	// completes reports what differs from the last completed one: a change
	// made by a cancelled pass is reported, one it made and the completing
	// pass undid is not.
	work    idHeap
	queued  []bool
	carry   idSet
	was     []*derivation
	touched idSet
	splices []Splice

	// The synthesis cache (Synthesize): one plan per component of st, nil
	// until the first synthesis over st; stale holds the components to plan
	// again, strategies the plans in force, flattened in name order.
	plans      []cachedPlan
	planPrefer []string
	stale      idSet
	strategies []Strategy

	sig, merged    []core.Label // gather buffers
	ends           []int32      // gather buffer
	comps, streams []int32      // back Stats.Components and Stats.Streams
	visited        int          // output interfaces the last pass worked through
	planned        int          // components the last Synthesize planned
}

// memoVersions bounds the per-interface derivation cache.
const memoVersions = 4

// NodeRef identifies one output interface of the collapsed graph. Comp
// may be a supernode name ("scc+A+B") and Iface a member-qualified
// interface ("B.out"); both can contain dots, which is why the reference
// is structured rather than a joined string.
type NodeRef struct {
	Comp, Iface string
}

// Splice is one patch of the standing structure: a tap entered into, or
// taken out of, the name-ordered stream list at Pos — its position in the
// list as the splices before it left it.
type Splice struct {
	Pos   int32
	Added bool
}

// Stats reports what one incremental Analyze actually did.
type Stats struct {
	// Rebuilt: this pass was a full (non-incremental) one — the structure
	// was compiled anew by this pass or by a cancelled pass since the last
	// completed analysis, so nothing from the previous analysis (labels,
	// records, projections) carries over. A structure that was only patched
	// (Splices) is not rebuilt.
	Rebuilt bool
	// Recomputed lists the collapsed-graph output interfaces whose
	// derivation record differs from the last completed pass's — freshly
	// derived, or swapped in from the version cache — in propagation
	// order.
	Recomputed []NodeRef
	// Reused counts output interfaces served from the memo.
	Reused int
	// Components and Streams are the same change set as positions in the
	// name-ordered lists Analysis.Components and Analysis.Streams yield,
	// ascending: the components with an interface in Recomputed, and the
	// streams whose label differs from the last completed pass's or whose
	// seal or replication flag a noted change set, every stream Splices
	// added among them. A Rebuilt pass reports neither — its positions
	// pair with nothing that came before. Both are the engine's buffers,
	// valid until its next Analyze.
	Components, Streams []int32
	// Splices lists, in the order they were made, the patches since the
	// last completed pass: applied one after the other to the previous
	// pass's name-ordered stream list they yield this pass's, the one
	// Streams holds positions in. Empty on a Rebuilt pass.
	Splices []Splice
}

// derivation is one output interface's derivation together with the exact
// inputs it depends on; it stays valid while every recorded dependency
// still matches. The incoming labels are the In side of its steps, and ends
// says which path each arrived on: where in the steps every feeding path
// but the last ends (a tap moves no label and can still move that).
type derivation struct {
	paths     []Path
	ends      []int32
	coord     Coordination
	rep       bool
	deps      *fd.Set
	outSchema fd.AttrSet
	outReps   bool

	OutputAnalysis
	// out is the label stamped on the interface's streams: the
	// reconciled output after the mechanism floor.
	out core.Label
}

func annEqual(a, b core.Annotation) bool {
	return a.Confluent == b.Confluent && a.Write == b.Write &&
		a.GateStar == b.GateStar && a.Gate.Equal(b.Gate)
}

func pathEqual(a, b Path) bool {
	return a.From == b.From && a.To == b.To && annEqual(a.Ann, b.Ann)
}

func (d *derivation) valid(comp *Component, in []core.Label, ends []int32, outReps bool) bool {
	if d.coord != comp.Coordination || d.rep != comp.Rep || d.deps != comp.Deps || d.outReps != outReps ||
		len(d.Steps) != len(in) || !slices.Equal(d.ends, ends) || !d.outSchema.Equal(comp.OutSchema[d.Iface]) {
		return false
	}
	for i, l := range in {
		if !d.Steps[i].In.Equal(l) {
			return false
		}
	}
	return slices.EqualFunc(d.paths, comp.Paths, pathEqual)
}

// NewIncremental wraps g (which the caller owns and mutates in place; every
// mutation must be reported through a Note* method before the next Analyze).
func NewIncremental(g *Graph) *Incremental {
	return &Incremental{g: g, topoDirty: true}
}

// Graph returns the live graph. Mutations must be noted.
func (inc *Incremental) Graph() *Graph { return inc.g }

// Version returns the mutation counter (bumped once per noted change).
func (inc *Incremental) Version() uint64 { return inc.version }

// NoteTopologyChange records a structural mutation (components, paths or
// streams added/removed/replaced): the next Analyze recompiles the
// structure.
func (inc *Incremental) NoteTopologyChange() {
	inc.version++
	inc.topoDirty = true
}

// NoteStreamAdded records that the graph gained the named stream, declared
// last. A tap (structure.tapNode) is patched into the standing structure:
// it is stamped with its producer's label or its own source label, and the
// interfaces that read it, or the one that feeds it (a replicated stream
// changes what its producer derives), are queued. Any other stream, or a
// tap while the last pass over the structure is incomplete, is a
// NoteTopologyChange.
func (inc *Incremental) NoteStreamAdded(stream string) {
	inc.version++
	if inc.topoDirty {
		return
	}
	st, v := inc.st, int32(-1)
	s := inc.g.Stream(stream)
	if inc.complete && s != nil && s == inc.g.streams[len(inc.g.streams)-1] && st.streamNamed(stream) < 0 {
		v = st.tapNode(s)
	}
	if v < 0 {
		inc.topoDirty = true
		return
	}
	id, pos := st.addTap(s, v)
	label := sourceLabel(s)
	if s.IsSink() {
		label = inc.a.derived[st.rank[v]].out
	}
	inc.a.labels = append(inc.a.labels, label)
	inc.touched.grow()
	inc.touched.add(id)
	inc.spliced(v, Splice{Pos: pos, Added: true})
}

// NoteStreamRemoved records that the graph lost the named stream; like
// NoteStreamAdded it patches a tap out of the standing structure and is a
// NoteTopologyChange for anything else.
func (inc *Incremental) NoteStreamRemoved(stream string) {
	inc.version++
	if inc.topoDirty {
		return
	}
	st, v := inc.st, int32(-1)
	id := st.streamNamed(stream)
	if inc.complete && id >= 0 && inc.g.Stream(stream) == nil {
		v = st.tapNode(st.streams[id])
	}
	if v < 0 {
		inc.topoDirty = true
		return
	}
	pos := st.dropTap(id)
	inc.a.labels = slices.Delete(inc.a.labels, int(id), int(id)+1)
	inc.touched.drop(id)
	inc.spliced(v, Splice{Pos: pos})
}

// spliced records a patch of the tap on interface node v and queues what
// the tap's coming or going can change: the plan of v's component (a plan
// reads its input streams), v's own derivation when it feeds the tap, and
// its readers' when the tap feeds it.
func (inc *Incremental) spliced(v int32, sp Splice) {
	st := inc.st
	inc.splices = append(inc.splices, sp)
	inc.replan(st.nodeComp[v])
	if st.nodeOut[v] {
		inc.enqueue(st.rank[v])
		return
	}
	for _, out := range st.succ.at(v) {
		inc.enqueue(st.rank[out])
	}
}

// NoteAnnotationChange records that the named component's path annotations
// changed in place (same path list, new annotations) and queues its output
// interfaces. Components on interface-level cycles degrade to a structural
// rebuild, because the collapsed annotation is derived from its cycle
// members.
func (inc *Incremental) NoteAnnotationChange(comp string) {
	inc.version++
	if inc.topoDirty {
		return
	}
	c, ok := inc.st.component(comp)
	if !ok || inc.st.cyclic[comp] {
		// Unknown to the collapsed graph means merged into a supernode (or
		// a mutation that was not noted): rebuild.
		inc.topoDirty = true
		return
	}
	for _, r := range inc.st.outRanks.at(c) {
		inc.enqueue(r)
	}
}

// NoteStreamChange records that the named stream's seal (or replication
// flag) changed in place: the collapsed graph's copy of a rewired stream is
// brought in line, the producing interface is queued (its replication may
// have changed), and a source's new label is stamped and its consumers
// queued. A stream the collapse dropped has no effect on the labels.
func (inc *Incremental) NoteStreamChange(stream string) {
	inc.version++
	if inc.topoDirty {
		return
	}
	st := inc.st
	id := st.streamNamed(stream)
	orig := inc.g.Stream(stream)
	if id < 0 || orig == nil {
		return
	}
	s := st.streams[id]
	s.Seal, s.Rep = orig.Seal, orig.Rep
	inc.touched.add(id)
	if to := st.to[id]; to >= 0 {
		inc.replan(st.nodeComp[to]) // a plan may read its input streams' own annotations
	}
	if from := st.from[id]; from >= 0 {
		inc.enqueue(st.rank[from])
	} else if inc.complete {
		// A pass that is not complete restamps every source anyway.
		inc.stamp(id, sourceLabel(s))
	}
}

func (inc *Incremental) enqueue(rank int32) {
	if !inc.queued[rank] {
		inc.queued[rank] = true
		inc.work.push(rank)
	}
}

// stamp sets a stream's label and, when that changes it, queues the output
// interfaces reading the stream.
func (inc *Incremental) stamp(stream int32, l core.Label) {
	if inc.a.labels[stream].Equal(l) {
		return
	}
	inc.a.labels[stream] = l
	if to := inc.st.to[stream]; to >= 0 {
		for _, out := range inc.st.succ.at(to) {
			inc.enqueue(inc.st.rank[out])
		}
	}
}

// rebuild recompiles the structure and moves the memo over to it.
func (inc *Incremental) rebuild() error {
	st, err := compile(inc.g)
	if err != nil {
		return err
	}
	n := len(st.order)
	memo := make([][memoVersions]*derivation, n)
	if old := inc.st; old != nil {
		// Both node lists are in (component, interface, direction) order:
		// one merge pairs the output interfaces that kept their name.
		o := int32(0)
		for v := range int32(len(st.nodeOut)) {
			if !st.nodeOut[v] {
				continue
			}
			comp := st.comps[st.nodeComp[v]].Name
			for ; int(o) < len(old.nodeOut); o++ {
				c := cmp.Compare(old.comps[old.nodeComp[o]].Name, comp)
				if c == 0 {
					c = old.key(o).compare(st.key(v))
				}
				if c == 0 {
					memo[st.rank[v]] = inc.memo[old.rank[o]]
				}
				if c >= 0 {
					break
				}
			}
		}
	}
	inc.st, inc.a, inc.memo, inc.complete = st, newAnalysis(st), memo, false
	inc.work = inc.work[:0]
	inc.queued = make([]bool, n)
	inc.carry, inc.was = newIDSet(n), inc.was[:0]
	inc.touched = newIDSet(len(st.streams))
	inc.splices = nil
	inc.plans, inc.strategies = nil, nil // planned over the old structure
	inc.stale = newIDSet(len(st.comps))
	inc.topoDirty = false
	return nil
}

// Analyze re-derives the analysis, reusing every memoized derivation whose
// dependencies are unchanged. The result is identical to a fresh
// Analyze(g) of the current graph. The returned Analysis is owned by the
// engine: later Note* and Analyze calls update it in place, so callers must
// project what they need (labels, reports) before mutating further. ctx
// cancels between interface derivations.
//
// Invariant: between passes, every output interface outside the work queue
// has its streams stamped with the label of the derivation recorded for it
// in the Analysis, and that derivation is valid for the current graph.
func (inc *Incremental) Analyze(ctx context.Context) (*Analysis, Stats, error) {
	var stats Stats
	if inc.complete && inc.version == inc.analyzed && !inc.topoDirty {
		stats.Reused = len(inc.st.order)
		return inc.a, stats, nil
	}
	if inc.topoDirty {
		if err := inc.rebuild(); err != nil {
			return nil, stats, err
		}
	}
	st, a := inc.st, inc.a
	stats.Rebuilt = !inc.complete
	if !inc.complete {
		for id, s := range st.streams {
			if st.from[id] < 0 {
				a.labels[id] = sourceLabel(s)
			}
		}
		for r := range st.order {
			inc.enqueue(int32(r))
		}
	}

	hits := 0
	inc.visited = 0
	for len(inc.work) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, stats, err
		}
		r := inc.work.pop()
		inc.queued[r] = false
		inc.visited++

		v := st.order[r]
		comp := st.comps[st.nodeComp[v]]
		sig, ends := inc.sig[:0], inc.ends[:0]
		for i, p := range st.feed.at(v) {
			if i > 0 {
				ends = append(ends, int32(len(sig)))
			}
			streams := st.into.at(st.pathIn[p])
			if len(streams) == 0 {
				sig = append(sig, core.Async) // an unconnected input defaults to Async
			}
			for _, s := range streams {
				sig = append(sig, a.labels[s])
			}
		}
		inc.sig, inc.ends = sig, ends
		outReps := false
		for _, s := range st.outOf.at(v) {
			outReps = outReps || st.streams[s].Rep
		}

		// Look the signature up in the interface's version cache.
		entries := &inc.memo[r]
		at := 0
		for at < memoVersions && entries[at] != nil && !entries[at].valid(comp, sig, ends, outReps) {
			at++
		}
		var d *derivation
		if at < memoVersions && entries[at] != nil {
			d = entries[at]
			hits++
		} else {
			d = inc.derive(v, comp, sig, ends, outReps)
			at = min(at, memoVersions-1)
		}
		copy(entries[1:at+1], entries[:at]) // move to front, evicting the oldest
		entries[0] = d

		if a.derived[r] == d {
			continue // streams already stamped with d.out, record unchanged
		}
		if !inc.carry.has[r] {
			inc.was = append(inc.was, a.derived[r])
		}
		a.derived[r] = d
		inc.carry.add(r)
		inc.replan(st.nodeComp[v])
		for _, s := range st.outOf.at(v) {
			inc.stamp(s, d.out)
		}
	}

	// The pass completed: report every interface whose derivation differs
	// from the last completed pass's, in propagation order, and the streams
	// it stamps when their label moved with it.
	changed := inc.carry.ids[:0]
	for i, r := range inc.carry.ids {
		was, d := inc.was[i], a.derived[r]
		if d == was {
			inc.carry.has[r] = false
			continue
		}
		changed = append(changed, r)
		if was != nil && !was.out.Equal(d.out) {
			for _, s := range st.outOf.at(st.order[r]) {
				inc.touched.add(s)
			}
		}
	}
	clear(inc.was)
	inc.carry.ids, inc.was = changed, inc.was[:0]
	slices.Sort(inc.carry.ids)
	stats.Recomputed = make([]NodeRef, len(inc.carry.ids))
	for i, r := range inc.carry.ids {
		v := st.order[r]
		stats.Recomputed[i] = NodeRef{Comp: st.comps[st.nodeComp[v]].Name, Iface: st.nodeIface[v]}
	}
	if !stats.Rebuilt {
		inc.comps, inc.streams = inc.comps[:0], inc.streams[:0]
		for _, r := range inc.carry.ids {
			inc.comps = append(inc.comps, st.nodeComp[st.order[r]])
		}
		for _, id := range inc.touched.ids {
			inc.streams = append(inc.streams, st.namePos[id])
		}
		slices.Sort(inc.comps)
		slices.Sort(inc.streams)
		stats.Components, stats.Streams = slices.Compact(inc.comps), inc.streams
		stats.Splices, inc.splices = inc.splices, nil
	}
	inc.carry.clear()
	inc.touched.clear()
	// Every interface the pass did not visit would have hit its memo.
	stats.Reused = len(st.order) - inc.visited + hits

	a.Verdict = a.computeVerdict()
	inc.analyzed = inc.version
	inc.complete = true
	return a, stats, nil
}

// derive performs the derivation for output interface v: inference per
// (input label × path), then reconciliation, then the mechanism floor. in
// holds the incoming labels, path by path; ends, where in it the labels of
// each feeding path but the last end.
func (inc *Incremental) derive(v int32, comp *Component, in []core.Label, ends []int32, outReps bool) *derivation {
	st := inc.st
	coordinated := comp.Coordination == CoordSequenced || comp.Coordination == CoordDynamicOrder ||
		comp.Coordination == CoordQuorumOrder

	d := &derivation{
		paths:     slices.Clone(comp.Paths),
		ends:      slices.Clone(ends),
		coord:     comp.Coordination,
		rep:       comp.Rep,
		deps:      comp.Deps,
		outSchema: comp.OutSchema[st.nodeIface[v]],
		outReps:   outReps,
	}
	d.Iface = st.nodeIface[v]
	d.Steps = make([]core.Step, 0, len(in))
	merged := inc.merged[:0]
	first := st.pathOff[st.nodeComp[v]]
	for _, p := range st.feed.at(v) {
		ann := comp.Paths[p-first].Ann
		if coordinated && ann.OrderSensitive() {
			// A total order over inputs (M1/M2/M1q) removes order
			// sensitivity: the path behaves as its confluent counterpart.
			// (M2's residual cross-run nondeterminism is reapplied below.)
			ann = core.Annotation{Confluent: true, Write: ann.Write}
		}
		info := core.PathInfo{Ann: ann, Deps: comp.Deps}
		for range max(1, len(st.into.at(st.pathIn[p]))) {
			step := core.InferInfo(in[len(d.Steps)], info)
			d.Steps = append(d.Steps, step)
			merged = append(merged, step.Out)
		}
	}
	inc.merged = merged
	d.Reconciliation = core.ReconcileWithSchema(merged, comp.Rep || outReps, comp.Deps, d.outSchema)

	d.out = d.Reconciliation.Output
	// M2 (dynamic ordering) fixes order within a run only: contents remain
	// nondeterministic across runs (Figure 5).
	if comp.Coordination == CoordDynamicOrder && d.out.Severity() < core.Run.Severity() {
		d.out = core.Run
	}
	return d
}
