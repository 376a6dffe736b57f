package blazes

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"blazes/internal/dataflow"
	"blazes/internal/fd"
	ispec "blazes/internal/spec"
)

// Session is a mutable, incrementally re-analyzed dataflow: the API for the
// paper's interactive repair loop (annotate → analyze → read the report →
// seal or sequence → re-analyze). Open one from a Graph or a Spec, mutate
// it in place, and call Analyze to get a Report that re-derives only the
// components whose labels can have changed — per-output derivations are
// memoized and invalidated along the downstream closure of each mutation,
// so a one-component annotation flip costs a fraction of a full analysis.
//
// Mutators validate eagerly and leave the session untouched on error, so a
// failed call never corrupts the graph. Reports from the second analysis
// onward carry a Delta section describing what changed since the previous
// one. A Session serializes its methods internally and is safe for
// concurrent use (the service hosts many sessions this way); the analyses
// themselves remain deterministic.
type Session struct {
	mu  sync.Mutex
	cfg config
	inc *dataflow.Incremental
	// version mirrors inc.Version() atomically so Version() never blocks
	// behind a long-running Analyze holding mu (the service lists
	// sessions while others analyze).
	version atomic.Uint64

	// spec backs SetVariant; nil for sessions opened from a Graph.
	spec *Spec

	seq       int // completed analyses
	prev      *Report
	prevSynth bool
	last      dataflow.Stats // of the latest pass; LastStats renders it
	derived   derivations    // what prev's components were projected from
	// strategies is the projection of planned, the strategy list the engine
	// last returned; the engine returns the same list until a plan changes.
	planned    []Strategy
	strategies []StrategyReport
	// lint holds the diagnostics of the graph at version lintAt, once
	// linted.
	lint   []LintDiagnostic
	lintAt uint64
	linted bool
}

// SessionStats describes what the most recent Analyze/Synthesize actually
// did — the observability hook for the incremental engine.
type SessionStats struct {
	// Rebuilt: the structural caches (validation, cycle collapse,
	// topological order, stream index) were rebuilt — true after every
	// topology edit, whether they were compiled anew or patched.
	Rebuilt bool
	// Patched: they were patched in place, not compiled anew — every stream
	// that came or went since the previous analysis was a tap (an external
	// source or sink on a component outside every cycle), so the pass
	// re-derived what the taps touch and the report repeats the previous
	// one's entries around them. Implies Rebuilt.
	Patched bool
	// Recomputed lists the output interfaces ("Comp.iface") re-derived, in
	// propagation order.
	Recomputed []string
	// Reused counts output-interface derivations served from the memo.
	Reused int
}

// OpenSession starts a session over a deep copy of g (the caller's graph is
// never mutated, and no session edit reaches it). Seal-repair options apply
// to the session's copy up front; WithStrategy's list is remembered for
// Synthesize. The graph must validate.
func OpenSession(g *Graph, opts ...Option) (*Session, error) {
	cfg := buildConfig(opts)
	if err := cfg.checkStrategies(); err != nil {
		return nil, err
	}
	ng := g.Clone()
	if err := cfg.applySealRepairs(ng); err != nil {
		return nil, err
	}
	if err := ng.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, inc: dataflow.NewIncremental(ng)}, nil
}

// OpenSession builds the spec's graph (honoring WithVariant selections) and
// opens a session over it. Spec-backed sessions additionally support
// SetVariant.
//
// The session owns the graph the spec has just built: nobody else holds
// it, so it is not copied, and it is validated once, by the build. A seal
// repair sets only Stream.Seal, which Validate does not read, so a graph
// that validated before its repairs validates after them.
func (s *Spec) OpenSession(name string, opts ...Option) (*Session, error) {
	cfg := buildConfig(opts)
	g, err := s.graph(name, cfg)
	if err != nil {
		return nil, err
	}
	if err := cfg.checkStrategies(); err != nil {
		return nil, err
	}
	if err := cfg.applySealRepairs(g); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, inc: dataflow.NewIncremental(g), spec: s}, nil
}

// Version returns the session's mutation counter; it increments once per
// successful mutation, so two equal versions bracket an unchanged graph.
// It never blocks, even while an analysis is in flight.
func (s *Session) Version() uint64 { return s.version.Load() }

// bumped records a successful mutation; the caller holds s.mu.
func (s *Session) bumped() { s.version.Store(s.inc.Version()) }

// Graph returns a deep copy of the session's current graph (e.g. to hand
// to a one-shot Analyzer or a differential check).
func (s *Session) Graph() *Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inc.Graph().Clone()
}

// ComponentNames returns the component names of the current graph in name
// order — a cheap inspection that avoids cloning the graph.
func (s *Session) ComponentNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	comps := s.inc.Graph().Components()
	out := make([]string, len(comps))
	for i, c := range comps {
		out[i] = c.Name
	}
	return out
}

// StreamNames returns the stream names of the current graph in
// declaration order.
func (s *Session) StreamNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	streams := s.inc.Graph().Streams()
	out := make([]string, len(streams))
	for i, st := range streams {
		out[i] = st.Name
	}
	return out
}

// LastStats reports what the most recent analysis did (zero before the
// first one).
func (s *Session) LastStats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	patched := len(s.last.Splices) > 0
	recomputed := make([]string, len(s.last.Recomputed))
	for i, n := range s.last.Recomputed {
		recomputed[i] = n.Comp + "." + n.Iface
	}
	return SessionStats{Rebuilt: s.last.Rebuilt || patched, Patched: patched, Recomputed: recomputed, Reused: s.last.Reused}
}

// AddComponent declares a new component with the given annotated paths.
// The name must be unused and at least one path is required.
func (s *Session) AddComponent(name string, paths ...PathDecl) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	decls := make([]dataflow.Path, len(paths))
	for i, p := range paths {
		decls[i] = dataflow.Path(p)
	}
	if errs := dataflow.CheckComponent(nil, "blazes: session: ", name, decls); len(errs) > 0 {
		return errs[0]
	}
	g := s.inc.Graph()
	if g.Lookup(name) != nil {
		return fmt.Errorf("blazes: session: component %q already exists", name)
	}
	g.Component(name).SetPaths(decls)
	s.inc.NoteTopologyChange()
	s.bumped()
	return nil
}

// PathDecl declares one annotated input→output path for AddComponent.
type PathDecl struct {
	From, To string
	Ann      Annotation
}

// Path builds a PathDecl.
func Path(from, to string, ann Annotation) PathDecl {
	return PathDecl{From: from, To: to, Ann: ann}
}

// Connect wires a new stream between "Component.iface" endpoints; an empty
// from makes it an external source, an empty to an external sink. Both
// endpoints must reference interfaces that already exist (declared by some
// path), so the mutation cannot invalidate the graph.
func (s *Session) Connect(stream, from, to string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := dataflow.Stream{Name: stream}
	var err error
	if st.FromComp, st.FromIface, err = ispec.SplitEndpoint(from); err == nil {
		st.ToComp, st.ToIface, err = ispec.SplitEndpoint(to)
	}
	if err != nil {
		return fmt.Errorf("blazes: session: stream %q: %w", stream, err)
	}
	g := s.inc.Graph()
	if errs := g.CheckStream(nil, "blazes: session: ", &st, g.Stream(stream) != nil); len(errs) > 0 {
		return errs[0]
	}
	g.Connect(stream, st.FromComp, st.FromIface, st.ToComp, st.ToIface)
	s.inc.NoteStreamAdded(stream)
	s.bumped()
	return nil
}

// RemoveEdge deletes the named stream.
func (s *Session) RemoveEdge(stream string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.inc.Graph().RemoveStream(stream) {
		return fmt.Errorf("blazes: session: unknown stream %q (declared: %v)", stream, streamNames(s.inc.Graph(), stream))
	}
	s.inc.NoteStreamRemoved(stream)
	s.bumped()
	return nil
}

// Annotate replaces the annotation of the component's from→to path (the
// path must exist; interfaces never change, so the mutation is cheap for
// the incremental engine).
func (s *Session) Annotate(component, from, to string, ann Annotation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.inc.Graph().Lookup(component)
	if c == nil {
		return fmt.Errorf("blazes: session: unknown component %q", component)
	}
	if !c.SetPathAnn(from, to, ann) {
		return fmt.Errorf("blazes: session: component %q has no path %s→%s", component, from, to)
	}
	s.inc.NoteAnnotationChange(component)
	s.bumped()
	return nil
}

// SealStream annotates the named stream with Seal on the given key; calling
// it with no key attributes removes the seal.
func (s *Session) SealStream(stream string, key ...string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.inc.Graph().Stream(stream)
	if st == nil {
		return fmt.Errorf("blazes: session: unknown stream %q (declared: %v)", stream, streamNames(s.inc.Graph(), stream))
	}
	if len(key) == 0 {
		st.Seal = AttrSet{}
	} else {
		st.Seal = fd.NewAttrSet(key...)
	}
	s.inc.NoteStreamChange(stream)
	s.bumped()
	return nil
}

// SetVariant re-selects a named annotation variant for a component of a
// spec-backed session: the component's paths are rebuilt from the spec's
// base annotations plus the variant. Like every mutator it is atomic —
// if the new paths would orphan a stream wired to an interface only the
// old variant declared, the change is rolled back and the validation
// error returned. Graph-backed sessions return an error; use Annotate
// instead.
func (s *Session) SetVariant(component, variant string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.spec == nil {
		return fmt.Errorf("blazes: session: SetVariant needs a spec-backed session (use Annotate on graph-backed sessions)")
	}
	g := s.inc.Graph()
	c := g.Lookup(component)
	if c == nil {
		return fmt.Errorf("blazes: session: unknown component %q", component)
	}
	paths, err := s.spec.cfg.VariantPaths(component, variant)
	if err != nil {
		return err
	}
	old := append([]dataflow.Path(nil), c.Paths...)
	c.SetPaths(paths)
	if err := g.Validate(); err != nil {
		c.SetPaths(old)
		return fmt.Errorf("blazes: session: SetVariant(%q, %q): %w", component, variant, err)
	}
	s.inc.NoteTopologyChange()
	s.bumped()
	return nil
}

// Analyze incrementally re-derives the stream labels and returns the
// Report; from the second analysis on, Report.Delta records what changed.
// The output is identical to a fresh Analyzer.Analyze of the same graph
// (modulo the Delta section, which a one-shot analysis cannot have). ctx
// cancels a long derivation between components.
func (s *Session) Analyze(ctx context.Context) (*Report, error) {
	return s.analyze(ctx, false)
}

// Synthesize is Analyze plus one synthesized coordination strategy per
// component that needs machinery, honoring WithStrategy.
func (s *Session) Synthesize(ctx context.Context) (*Report, error) {
	return s.analyze(ctx, true)
}

func (s *Session) analyze(ctx context.Context, synth bool) (*Report, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	an, stats, err := s.inc.Analyze(ctx)
	if err != nil {
		return nil, err
	}
	s.last = stats

	// While the structure stands or is patched, positions in the previous
	// report's lists are positions in the engine's, give or take the
	// splices, and the pass's change set names every entry that can differ;
	// a first report, or one across a recompile, is paired with the previous
	// one by name.
	var rep *Report
	if s.prev != nil && !stats.Rebuilt {
		rep = s.patch(an, stats)
	} else {
		rep = project(an, s.prev, &s.derived)
	}
	replanned := false
	if synth {
		rep.Strategies, replanned = s.strategyReports(s.inc.Synthesize(dataflow.SynthesisOptions{Prefer: s.cfg.prefer}))
	}
	if s.prev != nil {
		rep.Delta.header(s.prev, rep, recomputedComponents(an, stats), stats.Reused, s.seq)
		if s.prevSynth && replanned {
			rep.Delta.Strategies = strategyDeltas(s.prev.Strategies, rep.Strategies)
		}
	}
	s.seq++
	s.prev = rep
	s.prevSynth = synth
	return rep, nil
}

// recomputedComponents names, in name order, the components of which the
// pass re-derived an interface.
func recomputedComponents(an *dataflow.Analysis, stats dataflow.Stats) []string {
	if stats.Rebuilt {
		// A full pass records every derivation anew, and no component is
		// without one.
		names := make([]string, 0, len(an.Collapsed.Components()))
		for ca := range an.Components() {
			names = append(names, ca.Component.Name)
		}
		return names
	}
	names := make([]string, len(stats.Components))
	for i, pos := range stats.Components {
		names[i] = an.ComponentAt(int(pos)).Component.Name
	}
	return names
}

// strategyReports projects the engine's strategies — once per slice: a
// synthesis that changed no plan returns the slice it returned before, and
// gets the projection made then. replanned reports that it was another.
func (s *Session) strategyReports(planned []Strategy) (reports []StrategyReport, replanned bool) {
	if len(planned) == len(s.planned) && (len(planned) == 0 || &planned[0] == &s.planned[0]) {
		return s.strategies, false
	}
	s.planned, s.strategies = planned, nil
	for _, st := range planned {
		s.strategies = append(s.strategies, strategyReport(st))
	}
	return s.strategies, true
}

// patch builds the report of a pass that kept the structure from the
// previous one, give or take a tap: the lists are the previous report's own,
// or — reports being immutable, and read outside the session's lock — a copy
// of the addresses with the spliced entries inserted or dropped and the
// changed positions projected into entries of their own. The report's Delta
// holds the streams that came, went or changed label, in name order as
// project lists them.
func (s *Session) patch(an *dataflow.Analysis, stats dataflow.Stats) *Report {
	prev := s.prev
	rep := &Report{
		Version:       ReportVersion,
		Dataflow:      an.Graph.Name,
		Verdict:       labelReport(an.Verdict),
		Deterministic: an.Deterministic(),
		Streams:       prev.Streams,
		Components:    prev.Components,
		Delta:         &Delta{},
	}
	// The splices, applied to a copy of the previous list. A stream that came
	// leaves a nil entry, which the engine lists among the changed ones below;
	// a stream that went is remembered for the Delta, unless it is one that
	// had just come.
	var gone []StreamDelta
	cloned := len(stats.Splices) > 0
	if cloned {
		// The copy is made around the first splice, as a rule the only one:
		// nothing is moved twice.
		first, rest := stats.Splices[0], prev.Streams
		rep.Streams = append(make([]*StreamReport, 0, len(rest)+len(stats.Splices)), rest[:first.Pos]...)
		rest = rest[first.Pos:]
		if first.Added {
			rep.Streams = append(rep.Streams, nil)
		} else {
			gone, rest = append(gone, StreamDelta{Name: rest[0].Name, Before: rest[0].Label}), rest[1:]
		}
		rep.Streams = append(rep.Streams, rest...)
		for _, sp := range stats.Splices[1:] {
			pos := int(sp.Pos)
			if sp.Added {
				rep.Streams = slices.Insert(rep.Streams, pos, nil)
				continue
			}
			if was := rep.Streams[pos]; was != nil {
				gone = append(gone, StreamDelta{Name: was.Name, Before: was.Label})
			}
			rep.Streams = slices.Delete(rep.Streams, pos, pos+1)
		}
	}
	for _, pos := range stats.Streams {
		st, l := an.StreamAt(int(pos))
		pr := rep.Streams[pos]
		came := pr == nil
		if !came && streamReportCurrent(pr, st, l, false) {
			continue // moved and moved back
		}
		if !cloned {
			rep.Streams, cloned = slices.Clone(prev.Streams), true
		}
		sr := streamReport(st, l)
		rep.Streams[pos] = &sr
		var before LabelReport
		if came {
			// A name that went and came again is a stream both reports have.
			i := slices.IndexFunc(gone, func(d StreamDelta) bool { return d.Name == sr.Name })
			if i < 0 {
				rep.Delta.Streams = append(rep.Delta.Streams, StreamDelta{Name: sr.Name, After: sr.Label})
				continue
			}
			before = gone[i].Before
			gone = slices.Delete(gone, i, i+1)
		} else {
			before = pr.Label
		}
		if !labelReportEqual(before, sr.Label) {
			rep.Delta.Streams = append(rep.Delta.Streams, StreamDelta{Name: sr.Name, Before: before, After: sr.Label})
		}
	}
	if len(gone) > 0 {
		rep.Delta.Streams = append(rep.Delta.Streams, gone...)
		slices.SortFunc(rep.Delta.Streams, func(a, b StreamDelta) int { return cmp.Compare(a.Name, b.Name) })
	}
	cloned = false
	for _, pos := range stats.Components {
		ca := an.ComponentAt(int(pos))
		lo := 0
		if pos > 0 {
			lo = s.derived.end[pos-1]
		}
		outs, i, same := s.derived.outs[lo:s.derived.end[pos]], 0, true
		for d := range ca.Derivations() {
			same = same && outs[i] == d
			outs[i] = d
			i++
		}
		if same {
			continue // swapped out and back in
		}
		if !cloned {
			rep.Components, cloned = slices.Clone(prev.Components), true
		}
		cr := componentReport(ca)
		rep.Components[pos] = &cr
	}
	return rep
}

// derivations records, component by component, the derivations a session's
// latest report was projected from, for the next report to compare against:
// end[i] ends those of the report's i-th component. The spare pair is the
// one before, reused for the next report.
type derivations struct {
	outs, spareOuts []*dataflow.OutputAnalysis
	end, spareEnd   []int
}

// project builds the wire report of an analysis that has no kept structure
// to patch — a one-shot analysis, a session's first, one across a recompile
// — sharing with prev, the report before it, by address, every entry that
// did not change; reports are immutable wire data, so sharing is safe. A
// stream entry is shared when its wire fields still describe the stream. A
// component entry is shared when the component still yields the derivations
// the entry was projected from: a derivation is immutable and keeps its
// address while it stays in force, also across a structural rebuild, so
// equal pointers and an equal configuration mean an equal record. Both
// lists are in name order in both reports and are paired by one merge; a
// list in which nothing changed is shared whole, and the streams that came,
// went or changed label on the way are the report's Delta.Streams.
//
// Without a report before it, the report has no Delta and the entries of
// each list are carved from one array. derived, which only a session keeps,
// holds the derivations prev was projected from and takes those of the new
// report; a one-shot analysis passes nil and records none.
func project(an *dataflow.Analysis, prev *Report, derived *derivations) *Report {
	rep := &Report{
		Version:       ReportVersion,
		Dataflow:      an.Graph.Name,
		Verdict:       labelReport(an.Verdict),
		Deterministic: an.Deterministic(),
	}
	var carvedStreams []StreamReport
	var carvedComps []ComponentReport
	if prev == nil {
		prev = &Report{}
		carvedStreams = make([]StreamReport, 0, len(an.Collapsed.Streams()))
		carvedComps = make([]ComponentReport, 0, len(an.Collapsed.Components()))
	} else {
		rep.Delta = &Delta{}
	}

	var delta []StreamDelta
	streams, pi := sharedPrefix[*StreamReport]{prev: prev.Streams, size: len(an.Collapsed.Streams())}, 0
	for st, l := range an.Streams() {
		// An entry that kept its place shares its name's bytes with the
		// stream, and a string equals itself without being read: the test
		// for equality comes first.
		for pi < len(prev.Streams) && prev.Streams[pi].Name != st.Name && prev.Streams[pi].Name < st.Name {
			delta = append(delta, StreamDelta{Name: prev.Streams[pi].Name, Before: prev.Streams[pi].Label})
			pi++
		}
		var pr *StreamReport
		if pi < len(prev.Streams) && prev.Streams[pi].Name == st.Name {
			pr = prev.Streams[pi]
			pi++
			if streamReportCurrent(pr, st, l, true) {
				streams.keep(pi - 1)
				continue
			}
		}
		sr := entry(&carvedStreams, streamReport(st, l))
		streams.add(sr)
		switch {
		case pr != nil && !labelReportEqual(pr.Label, sr.Label):
			delta = append(delta, StreamDelta{Name: sr.Name, Before: pr.Label, After: sr.Label})
		case pr == nil && rep.Delta != nil:
			delta = append(delta, StreamDelta{Name: sr.Name, After: sr.Label})
		}
	}
	for _, pr := range prev.Streams[pi:] {
		delta = append(delta, StreamDelta{Name: pr.Name, Before: pr.Label})
	}
	if rep.Streams = streams.list(); rep.Streams == nil {
		rep.Streams = []*StreamReport{} // an empty list of streams is a list on the wire, not null
	}
	if rep.Delta != nil {
		rep.Delta.Streams = delta
	}

	// outs collects, component by component, the derivations this report
	// is projected from; outEnd[i] ends the i-th component's.
	var outs []*dataflow.OutputAnalysis
	var outEnd []int
	if derived != nil {
		outs, outEnd = derived.spareOuts[:0], derived.spareEnd[:0]
	}
	comps, pi := sharedPrefix[*ComponentReport]{prev: prev.Components, size: len(an.Collapsed.Components())}, 0
	for ca := range an.Components() {
		comp := ca.Component
		first := len(outs)
		if derived != nil {
			for d := range ca.Derivations() {
				outs = append(outs, d)
			}
			outEnd = append(outEnd, len(outs))
		}
		for pi < len(prev.Components) && prev.Components[pi].Name != comp.Name && prev.Components[pi].Name < comp.Name {
			pi++
		}
		if pi < len(prev.Components) && prev.Components[pi].Name == comp.Name {
			pi++
			lo := 0
			if pi > 1 {
				lo = derived.end[pi-2]
			}
			pr := prev.Components[pi-1]
			if pr.Replicated == comp.Rep && pr.Coordination == coordinationToken(comp.Coordination) &&
				slices.Equal(derived.outs[lo:derived.end[pi-1]], outs[first:]) {
				comps.keep(pi - 1)
				continue
			}
		}
		comps.add(entry(&carvedComps, componentReport(ca)))
	}
	rep.Components = comps.list()
	if derived != nil {
		derived.spareOuts, derived.spareEnd = derived.outs, derived.end
		derived.outs, derived.end = outs, outEnd
	}
	return rep
}

// entry returns e by address: in the next slot of carved while it has room,
// in an allocation of its own after that.
func entry[T any](carved *[]T, e T) *T {
	if len(*carved) < cap(*carved) {
		*carved = append(*carved, e)
		return &(*carved)[len(*carved)-1]
	}
	p := new(T)
	*p = e
	return p
}

// sharedPrefix builds a list that repeats entries of a previous list: while
// it repeats them index for index it allocates nothing, and a list that
// repeated all of prev is prev itself.
type sharedPrefix[T any] struct {
	prev  []T
	size  int // entries the finished list will have
	out   []T
	n     int  // entries so far
	owned bool // out is a list of its own
}

// keep appends prev[i].
func (b *sharedPrefix[T]) keep(i int) {
	if !b.owned && i == b.n {
		b.n++
		return
	}
	b.add(b.prev[i])
}

// add appends an entry prev does not have.
func (b *sharedPrefix[T]) add(e T) {
	if !b.owned {
		b.out = append(make([]T, 0, max(b.size, b.n+1)), b.prev[:b.n]...)
		b.owned = true
	}
	b.out = append(b.out, e)
	b.n++
}

// list returns the built list; an empty one is nil, as on the wire.
func (b *sharedPrefix[T]) list() []T {
	switch {
	case b.owned:
		return b.out
	case b.n == 0:
		return nil
	default:
		return b.prev[:b.n:b.n]
	}
}

// streamReportCurrent reports whether a previous report's entry still
// describes stream s with label l, without projecting either. Only a
// structural rebuild can have given the name to a stream with other
// endpoints.
func streamReportCurrent(pr *StreamReport, s *dataflow.Stream, l Label, rebuilt bool) bool {
	return wireLabelEqual(pr.Label, l) && stringsEqualAttrs(pr.Seal, s.Seal) && pr.Replicated == s.Rep &&
		(!rebuilt || endpointEqual(pr.From, s.FromComp, s.FromIface) && endpointEqual(pr.To, s.ToComp, s.ToIface))
}

// endpointEqual reports whether w is endpoint(comp, iface).
func endpointEqual(w, comp, iface string) bool {
	if comp == "" {
		return w == ""
	}
	return len(w) == len(comp)+1+len(iface) && w[:len(comp)] == comp && w[len(comp)] == '.' && w[len(comp)+1:] == iface
}

// wireLabelEqual compares a wire-form label against a core label without
// projecting the latter.
func wireLabelEqual(w LabelReport, l Label) bool {
	if w.Kind != l.Kind.String() || w.Severity != l.Severity() {
		return false
	}
	return stringsEqualAttrs(w.Key, l.Key)
}

// stringsEqualAttrs compares a wire attribute list against an AttrSet.
func stringsEqualAttrs(w []string, s AttrSet) bool {
	attrs := s.Attrs()
	if len(w) != len(attrs) {
		return false
	}
	for i := range w {
		if w[i] != attrs[i] {
			return false
		}
	}
	return true
}

// header fills in what a delta says of the pass and of the verdict.
func (d *Delta) header(prev, cur *Report, recomputed []string, reused, since int) {
	d.Since, d.Reused = since, reused
	if len(recomputed) > 0 {
		d.Recomputed = recomputed
	}
	if !labelReportEqual(prev.Verdict, cur.Verdict) {
		d.Verdict = &VerdictDelta{Before: prev.Verdict, After: cur.Verdict}
	}
}

func labelReportEqual(a, b LabelReport) bool {
	if a.Kind != b.Kind || a.Severity != b.Severity || len(a.Key) != len(b.Key) {
		return false
	}
	for i := range a.Key {
		if a.Key[i] != b.Key[i] {
			return false
		}
	}
	return true
}

func strategyReportEqual(a, b StrategyReport) bool {
	if a.Component != b.Component || a.Mechanism != b.Mechanism || a.Reason != b.Reason {
		return false
	}
	if len(a.Inputs) != len(b.Inputs) || len(a.SealKeys) != len(b.SealKeys) {
		return false
	}
	for i := range a.Inputs {
		if a.Inputs[i] != b.Inputs[i] {
			return false
		}
	}
	for k, av := range a.SealKeys {
		bv, ok := b.SealKeys[k]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// strategyDeltas diffs two strategy lists; like the stream lists, both are
// in component-name order and are paired by one merge.
func strategyDeltas(prev, cur []StrategyReport) []StrategyDelta {
	var out []StrategyDelta
	i, j := 0, 0
	for i < len(prev) || j < len(cur) {
		switch {
		case j >= len(cur) || (i < len(prev) && prev[i].Component < cur[j].Component):
			before := prev[i]
			out = append(out, StrategyDelta{Component: before.Component, Before: &before})
			i++
		case i >= len(prev) || cur[j].Component < prev[i].Component:
			after := cur[j]
			out = append(out, StrategyDelta{Component: after.Component, After: &after})
			j++
		default:
			if !strategyReportEqual(prev[i], cur[j]) {
				before, after := prev[i], cur[j]
				out = append(out, StrategyDelta{Component: after.Component, Before: &before, After: &after})
			}
			i++
			j++
		}
	}
	return out
}
