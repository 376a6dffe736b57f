// Package dataflow models the logical dataflow graphs that Blazes analyzes
// (Section II of the paper) and implements the whole-graph analysis of
// Section V: path enumeration with cycle collapse, per-component inference
// and reconciliation, end-to-end label propagation, and coordination
// strategy synthesis.
package dataflow

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// Coordination enumerates the delivery mechanisms of Figure 5 that can be
// imposed on a component's inputs by a synthesized strategy.
type Coordination int

const (
	// CoordNone leaves delivery asynchronous and unordered.
	CoordNone Coordination = iota
	// CoordSequenced is M1: a preordained total order over inputs (e.g.
	// Storm transactional batch ids). Deterministic across runs, instances
	// and replays.
	CoordSequenced
	// CoordDynamicOrder is M2: a dynamic ordering service (e.g. Paxos or
	// Zookeeper) decides a total order per run. All replicas agree within
	// a run, but different runs may order differently.
	CoordDynamicOrder
	// CoordSealed is M3: per-partition sealing; inputs are buffered until
	// their partition is sealed by every producer.
	CoordSealed
	// CoordQuorumOrder is a cheaper M1 variant: producers stamp messages
	// with Lamport clocks and replicas deliver in (clock, producer, seq)
	// order once the stability frontier passes, so the total order is
	// preordained without a global sequencer round trip per message.
	CoordQuorumOrder
	// CoordPartitionSealed is M3 with independent partitions: each
	// partition key seals and releases on its own, so one slow partition
	// does not block reads against the others.
	CoordPartitionSealed
)

// mechanism is one row of the mechanisms table.
type mechanism struct {
	name, token, strategy string
	planner               StrategyDef
}

// mechanisms is the one table of delivery mechanisms and the one catalog
// of strategies, a row per Coordination in declaration order: its Figure 5
// name (String), its stable wire token (Token), the name of the strategy
// that installs it (Strategy) and that strategy's planner. A new mechanism
// is declared by adding a constant above and a row here.
var mechanisms = [...]mechanism{
	CoordNone:            {"none", "none", "", nil},
	CoordSequenced:       {"sequencing (M1)", "sequencing", StrategySequencing, sequencingPlanner},
	CoordDynamicOrder:    {"dynamic ordering (M2)", "dynamic-ordering", StrategyOrdering, orderingPlanner},
	CoordSealed:          {"sealing (M3)", "sealing", StrategySealing, sealingPlanner},
	CoordQuorumOrder:     {"quorum ordering (M1q)", "quorum-ordering", StrategyQuorumOrdering, quorumOrderingPlanner},
	CoordPartitionSealed: {"partition sealing (M3p)", "partition-sealing", StrategyPartitionSealing, partitionSealingPlanner},
}

// Coordinations lists every delivery mechanism in declaration order.
func Coordinations() []Coordination {
	out := make([]Coordination, len(mechanisms))
	for i := range out {
		out[i] = Coordination(i)
	}
	return out
}

// row is c's table row; an undeclared value renders as "Coordination(n)",
// with the token of CoordNone and no strategy.
func (c Coordination) row() mechanism {
	if c < 0 || int(c) >= len(mechanisms) {
		return mechanism{name: fmt.Sprintf("Coordination(%d)", int(c)), token: mechanisms[CoordNone].token}
	}
	return mechanisms[c]
}

// String names the mechanism as in Figure 5.
func (c Coordination) String() string { return c.row().name }

// Token is the mechanism's stable wire token (report v2).
func (c Coordination) Token() string { return c.row().token }

// Strategy names the strategy that installs the mechanism; empty for
// CoordNone.
func (c Coordination) Strategy() string { return c.row().strategy }

// ParseCoordination inverts String and ParseToken inverts Token; the error
// of either lists the valid spellings.
func ParseCoordination(name string) (Coordination, error) {
	return parseMechanism("coordination mechanism", name, Coordination.String)
}

// ParseToken resolves a wire token back to its mechanism.
func ParseToken(token string) (Coordination, error) {
	return parseMechanism("mechanism token", token, Coordination.Token)
}

func parseMechanism(what, s string, spell func(Coordination) string) (Coordination, error) {
	all := Coordinations()
	known := make([]string, len(all))
	for i, c := range all {
		if known[i] = spell(c); known[i] == s {
			return c, nil
		}
	}
	return CoordNone, fmt.Errorf("unknown %s %q (valid: %s)", what, s, strings.Join(known, ", "))
}

// Path is an annotated path from an input interface to an output interface
// of one component.
type Path struct {
	From, To string
	Ann      core.Annotation
}

// Component is a logical unit of computation and storage with named input
// and output interfaces and annotated paths between them.
type Component struct {
	Name string
	// Rep marks the component (and hence its output streams) as
	// replicated: multiple instances consume replicated inputs.
	Rep bool
	// Paths lists the annotated input→output paths.
	Paths []Path
	// Deps carries the component's injective-FD lineage (white box); nil
	// means identity-only.
	Deps *fd.Set
	// OutSchema optionally maps output interface names to their attribute
	// schemas, enabling seal-key chasing (white box).
	OutSchema map[string]fd.AttrSet
	// Coordination records a delivery mechanism imposed on this
	// component's inputs by a synthesized (or manually applied) strategy.
	Coordination Coordination

	// ins and outs are the interface names the paths read and feed, each
	// sorted: a component has a handful, and two flat lists cost the
	// collector a fraction of what two maps do.
	ins, outs []string
}

// Inputs returns the component's input interface names in sorted order.
func (c *Component) Inputs() []string { return slices.Clone(c.ins) }

// Outputs returns the component's output interface names in sorted order.
func (c *Component) Outputs() []string { return slices.Clone(c.outs) }

// AddPath declares an annotated path. Interfaces are created on first use.
func (c *Component) AddPath(from, to string, ann core.Annotation) *Component {
	c.Paths = append(c.Paths, Path{From: from, To: to, Ann: ann})
	c.ins = addSorted(c.ins, from)
	c.outs = addSorted(c.outs, to)
	return c
}

// addSorted inserts name into the sorted set unless it is there.
func addSorted(set []string, name string) []string {
	i, found := slices.BinarySearch(set, name)
	if found {
		return set
	}
	return slices.Insert(set, i, name)
}

func hasSorted(set []string, name string) bool {
	_, found := slices.BinarySearch(set, name)
	return found
}

// SetPathAnn replaces the annotation of every from→to path and reports
// whether at least one path matched. The interface sets are unchanged, so
// the mutation cannot invalidate streams.
func (c *Component) SetPathAnn(from, to string, ann core.Annotation) bool {
	found := false
	for i := range c.Paths {
		if c.Paths[i].From == from && c.Paths[i].To == to {
			c.Paths[i].Ann = ann
			found = true
		}
	}
	return found
}

// SetPaths replaces the component's paths wholesale (e.g. when a spec
// variant is re-selected) and rebuilds the interface sets. Streams wired to
// interfaces that no longer exist are caught by the next Validate.
func (c *Component) SetPaths(paths []Path) {
	c.Paths = append(c.Paths[:0:0], paths...)
	c.ins, c.outs = nil, nil
	for _, p := range c.Paths {
		c.ins = addSorted(c.ins, p.From)
		c.outs = addSorted(c.outs, p.To)
	}
}

// PathsFrom returns the paths reading the given input interface.
func (c *Component) PathsFrom(in string) []Path {
	var out []Path
	for _, p := range c.Paths {
		if p.From == in {
			out = append(out, p)
		}
	}
	return out
}

// Stream connects an output interface of one component to an input
// interface of another (or represents an external source/sink edge when one
// endpoint is empty).
type Stream struct {
	Name string
	// FromComp/FromIface identify the producer; empty FromComp marks an
	// external source.
	FromComp, FromIface string
	// ToComp/ToIface identify the consumer; empty ToComp marks an
	// external sink.
	ToComp, ToIface string
	// Seal carries the Seal_key annotation when the stream is punctuated
	// on key (empty = unsealed).
	Seal fd.AttrSet
	// Rep marks a replicated stream.
	Rep bool
}

// IsSource reports whether the stream enters the dataflow from outside.
func (s *Stream) IsSource() bool { return s.FromComp == "" }

// IsSink reports whether the stream leaves the dataflow.
func (s *Stream) IsSink() bool { return s.ToComp == "" }

// Graph is a logical dataflow: components wired by streams.
type Graph struct {
	Name       string
	components map[string]*Component
	streams    []*Stream
	byName     map[string]*Stream
	// sorted caches Components(); creating a component resets it. Atomic
	// so that concurrent readers of an unchanging graph stay race-free.
	sorted atomic.Pointer[[]*Component]
	// spareComps and spareStreams are entries allocated ahead, as many at a
	// time as the graph has (at least one, at most entryChunk), so that a
	// graph built entry by entry, as a spec builds one, lies in a few arrays
	// in build order rather than spread over the heap between its paths: a
	// session adopts such a graph and walks it on every edit.
	spareComps   []Component
	spareStreams []Stream
}

// entryChunk bounds how many components, or streams, a graph allocates at
// once.
const entryChunk = 64

// NewGraph creates an empty dataflow graph.
func NewGraph(name string) *Graph {
	return &Graph{
		Name:       name,
		components: map[string]*Component{},
		byName:     map[string]*Stream{},
	}
}

// Component returns the named component, creating it if needed.
func (g *Graph) Component(name string) *Component {
	if c, ok := g.components[name]; ok {
		return c
	}
	if len(g.spareComps) == 0 {
		g.spareComps = make([]Component, min(max(len(g.components), 1), entryChunk))
	}
	c := &g.spareComps[0]
	g.spareComps = g.spareComps[1:]
	c.Name = name
	g.components[name] = c
	g.sorted.Store(nil)
	return c
}

// Components returns the components in name order. The slice is shared
// between calls and must not be modified.
func (g *Graph) Components() []*Component {
	if p := g.sorted.Load(); p != nil {
		return *p
	}
	out := slices.SortedFunc(maps.Values(g.components), func(a, b *Component) int { return cmp.Compare(a.Name, b.Name) })
	g.sorted.Store(&out)
	return out
}

// Lookup returns the named component, or nil.
func (g *Graph) Lookup(name string) *Component { return g.components[name] }

// Connect wires fromComp.fromIface to toComp.toIface with a named stream
// and returns it for further annotation. Nothing is checked here: Validate
// applies the stream rules, a name declared twice among them.
func (g *Graph) Connect(name, fromComp, fromIface, toComp, toIface string) *Stream {
	if len(g.spareStreams) == 0 {
		g.spareStreams = make([]Stream, min(max(len(g.streams), 1), entryChunk))
	}
	s := &g.spareStreams[0]
	g.spareStreams = g.spareStreams[1:]
	*s = Stream{
		Name:     name,
		FromComp: fromComp, FromIface: fromIface,
		ToComp: toComp, ToIface: toIface,
	}
	g.streams = append(g.streams, s)
	g.byName[name] = s
	return s
}

// Source declares an external input stream feeding toComp.toIface.
func (g *Graph) Source(name, toComp, toIface string) *Stream {
	return g.Connect(name, "", "", toComp, toIface)
}

// Sink declares an external output stream leaving fromComp.fromIface.
func (g *Graph) Sink(name, fromComp, fromIface string) *Stream {
	return g.Connect(name, fromComp, fromIface, "", "")
}

// Stream returns the named stream, or nil.
func (g *Graph) Stream(name string) *Stream { return g.byName[name] }

// RemoveStream deletes the named stream from the graph and reports whether
// it existed. Declaration order of the remaining streams is preserved. On a
// graph that declares the name twice (Validate refuses it) the stream
// Stream(name) returns goes, and the name then names the latest stream
// still declaring it.
func (g *Graph) RemoveStream(name string) bool {
	s, ok := g.byName[name]
	if !ok {
		return false
	}
	dup := len(g.byName) < len(g.streams) // some name is declared twice
	delete(g.byName, name)
	i := slices.Index(g.streams, s)
	g.streams = slices.Delete(g.streams, i, i+1)
	if dup {
		for _, t := range g.streams {
			if t.Name == name {
				g.byName[name] = t
			}
		}
	}
	return true
}

// Streams returns all streams in declaration order.
func (g *Graph) Streams() []*Stream { return g.streams }

// Validate checks structural sanity: every component keeps the component
// rules (CheckComponent) and every stream the stream rules (CheckStream) —
// in particular no stream name is declared twice, so a name names one
// stream. Every problem is reported — the collected errors, each naming the
// offending component or stream, are joined with errors.Join so a
// construction site can fix them in one pass. Components are checked in
// name order and streams in declaration order, so the message is
// deterministic.
func (g *Graph) Validate() error {
	var errs []error
	for _, c := range g.Components() {
		errs = CheckComponent(errs, "dataflow: ", c.Name, c.Paths)
	}
	// Stream resolves each name to a stream, and Connect and RemoveStream
	// keep that map no larger than the set of declared names: as many
	// entries as streams means no name is declared twice.
	var declared map[string]bool
	if len(g.byName) != len(g.streams) {
		declared = make(map[string]bool, len(g.streams))
	}
	for _, s := range g.streams {
		errs = g.CheckStream(errs, "dataflow: ", s, declared[s.Name])
		if declared != nil {
			declared[s.Name] = true
		}
	}
	return errors.Join(errs...)
}

// CheckComponent appends to errs one error, each beginning with prefix, for
// every component rule a component named name with the given paths breaks:
// the name is non-empty, there is at least one path, and every path names
// both its interfaces.
func CheckComponent(errs []error, prefix, name string, paths []Path) []error {
	if name == "" {
		errs = append(errs, fmt.Errorf("%scomponent name must be non-empty", prefix))
	}
	if len(paths) == 0 {
		errs = append(errs, fmt.Errorf("%scomponent %q has no annotated paths", prefix, name))
	}
	if slices.ContainsFunc(paths, func(p Path) bool { return p.From == "" || p.To == "" }) {
		errs = append(errs, fmt.Errorf("%scomponent %q: path needs non-empty interface names", prefix, name))
	}
	return errs
}

// CheckStream appends to errs one error, each beginning with prefix, for
// every stream rule s breaks in g: the name is non-empty and, as declared
// tells, not declared before; the stream connects something; the producer
// and consumer components exist and have the interfaces s names.
func (g *Graph) CheckStream(errs []error, prefix string, s *Stream, declared bool) []error {
	switch {
	case s.Name == "":
		errs = append(errs, fmt.Errorf("%sstream name must be non-empty", prefix))
	case declared:
		errs = append(errs, fmt.Errorf("%sduplicate stream name %q", prefix, s.Name))
	}
	if s.IsSource() && s.IsSink() {
		errs = append(errs, fmt.Errorf("%sstream %q connects nothing to nothing", prefix, s.Name))
	}
	if !s.IsSource() {
		c, ok := g.components[s.FromComp]
		if !ok {
			errs = append(errs, fmt.Errorf("%sstream %q: unknown producer component %q", prefix, s.Name, s.FromComp))
		} else if !hasSorted(c.outs, s.FromIface) {
			errs = append(errs, fmt.Errorf("%sstream %q: component %q has no output interface %q", prefix, s.Name, s.FromComp, s.FromIface))
		}
	}
	if !s.IsSink() {
		c, ok := g.components[s.ToComp]
		if !ok {
			errs = append(errs, fmt.Errorf("%sstream %q: unknown consumer component %q", prefix, s.Name, s.ToComp))
		} else if !hasSorted(c.ins, s.ToIface) {
			errs = append(errs, fmt.Errorf("%sstream %q: component %q has no input interface %q", prefix, s.Name, s.ToComp, s.ToIface))
		}
	}
	return errs
}

// Clone deep-copies the graph so strategies can be applied to a copy. The
// copy's components and streams each live in one array, and so do their
// paths and their interface lists, each carved with its capacity clamped so
// that an AddPath reallocates rather than writes over a neighbour's. The
// copy lists its components in the source's name order without sorting
// them again.
func (g *Graph) Clone() *Graph {
	src := g.Components()
	var nPaths, nIfaces int
	for _, c := range src {
		nPaths += len(c.Paths)
		nIfaces += len(c.ins) + len(c.outs)
	}
	paths := make([]Path, 0, nPaths)
	ifaces := make([]string, 0, nIfaces)
	comps := make([]Component, len(src))
	sorted := make([]*Component, len(src))
	ng := &Graph{
		Name:       g.Name,
		components: make(map[string]*Component, len(src)),
		byName:     make(map[string]*Stream, len(g.byName)),
		streams:    make([]*Stream, len(g.streams)),
	}
	for i, c := range src {
		nc := &comps[i]
		*nc = Component{
			Name:         c.Name,
			Rep:          c.Rep,
			Paths:        carve(&paths, c.Paths),
			Deps:         c.Deps,
			OutSchema:    maps.Clone(c.OutSchema),
			Coordination: c.Coordination,
			ins:          carve(&ifaces, c.ins),
			outs:         carve(&ifaces, c.outs),
		}
		ng.components[c.Name] = nc
		sorted[i] = nc
	}
	ng.sorted.Store(&sorted)
	streams := make([]Stream, len(g.streams))
	for i, s := range g.streams {
		streams[i] = *s
		ng.streams[i] = &streams[i]
		ng.byName[s.Name] = &streams[i]
	}
	return ng
}

// carve appends src to the arena and returns the copy with its capacity
// clamped; nil stays nil.
func carve[T any](arena *[]T, src []T) []T {
	if src == nil {
		return nil
	}
	n := len(*arena)
	*arena = append(*arena, src...)
	return (*arena)[n : n+len(src) : n+len(src)]
}
