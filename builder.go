package blazes

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"blazes/internal/dataflow"
	"blazes/internal/fd"
)

// GraphBuilder constructs an annotated dataflow graph fluently. Errors are
// deferred: every method keeps accepting calls after a mistake, and Build
// returns all collected problems at once (joined with errors.Join), so a
// construction site reads as a single declarative block:
//
//	g, err := blazes.NewGraphBuilder("wordcount").
//		ComponentPath("Splitter", "tweets", "words", blazes.CR).
//		ComponentPath("Count", "words", "counts", blazes.OWGate("word", "batch")).
//		ComponentPath("Commit", "counts", "db", blazes.CW).
//		Source("tweets", "Splitter", "tweets").
//		Stream("words", "Splitter", "words", "Count", "words").
//		Stream("counts", "Count", "counts", "Commit", "counts").
//		Sink("db", "Commit", "db").
//		Seal("tweets", "batch").
//		Build()
//
// For richer per-component configuration (replication, lineage, output
// schemas) use Component, which returns a ComponentBuilder.
type GraphBuilder struct {
	g     *dataflow.Graph
	seals map[string]AttrSet
	reps  []string
	errs  []error
}

// NewGraphBuilder starts a builder for a named dataflow.
func NewGraphBuilder(name string) *GraphBuilder {
	return &GraphBuilder{
		g:     dataflow.NewGraph(name),
		seals: map[string]AttrSet{},
	}
}

func (b *GraphBuilder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// Component declares (or revisits) a component and returns its builder.
func (b *GraphBuilder) Component(name string) *ComponentBuilder {
	return &ComponentBuilder{b: b, c: b.g.Component(name)}
}

// ComponentPath is shorthand for Component(name).Path(from, to, ann) when a
// component needs exactly one annotated path.
func (b *GraphBuilder) ComponentPath(name, from, to string, ann Annotation) *GraphBuilder {
	b.Component(name).Path(from, to, ann)
	return b
}

// Source declares an external input stream feeding toComp.toIface.
func (b *GraphBuilder) Source(name, toComp, toIface string) *GraphBuilder {
	b.g.Source(name, toComp, toIface)
	return b
}

// Sink declares an external output stream leaving fromComp.fromIface.
func (b *GraphBuilder) Sink(name, fromComp, fromIface string) *GraphBuilder {
	b.g.Sink(name, fromComp, fromIface)
	return b
}

// Stream wires fromComp.fromIface to toComp.toIface.
func (b *GraphBuilder) Stream(name, fromComp, fromIface, toComp, toIface string) *GraphBuilder {
	b.g.Connect(name, fromComp, fromIface, toComp, toIface)
	return b
}

// Seal annotates the named stream with Seal on the given key attributes.
// The stream may be declared before or after this call; an unknown name is
// reported by Build.
func (b *GraphBuilder) Seal(stream string, key ...string) *GraphBuilder {
	if len(key) == 0 {
		b.errf("blazes: Seal(%q) needs at least one key attribute", stream)
		return b
	}
	b.seals[stream] = fd.NewAttrSet(key...)
	return b
}

// Replicate marks the named stream as replicated (consumed by multiple
// component instances). The stream may be declared before or after this
// call; an unknown name is reported by Build.
func (b *GraphBuilder) Replicate(stream string) *GraphBuilder {
	b.reps = append(b.reps, stream)
	return b
}

// Build validates the accumulated graph and returns it, or every collected
// construction error joined into one. The rules for components and streams
// — names non-empty, a stream name declared once, endpoints that exist —
// are Graph.Validate's.
func (b *GraphBuilder) Build() (*Graph, error) {
	errs := append([]error(nil), b.errs...)
	for _, name := range b.reps {
		s := b.g.Stream(name)
		if s == nil {
			errs = append(errs, fmt.Errorf("blazes: Replicate(%q): unknown stream (declared: %v)", name, streamNames(b.g, name)))
			continue
		}
		s.Rep = true
	}
	for _, name := range sortedSealNames(b.seals) {
		s := b.g.Stream(name)
		if s == nil {
			errs = append(errs, fmt.Errorf("blazes: Seal(%q): unknown stream (declared: %v)", name, streamNames(b.g, name)))
			continue
		}
		s.Seal = b.seals[name]
	}
	if err := b.g.Validate(); err != nil {
		// Validate itself aggregates with errors.Join; flatten so Build's
		// own join exposes every individual problem.
		if joined, ok := err.(interface{ Unwrap() []error }); ok {
			errs = append(errs, joined.Unwrap()...)
		} else {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	return b.g, nil
}

// MustBuild is Build for static graphs known to be well-formed; it panics
// on error.
func (b *GraphBuilder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// ComponentBuilder configures one component; it is returned by
// GraphBuilder.Component and chains back to the graph via Graph.
type ComponentBuilder struct {
	b *GraphBuilder
	c *dataflow.Component
}

// Path declares an annotated from→to path; interfaces are created on first
// use.
func (cb *ComponentBuilder) Path(from, to string, ann Annotation) *ComponentBuilder {
	cb.c.AddPath(from, to, ann)
	return cb
}

// Replicated marks the component (and hence its outputs) as replicated.
func (cb *ComponentBuilder) Replicated() *ComponentBuilder {
	cb.c.Rep = true
	return cb
}

// Deps attaches injective functional-dependency lineage (white box).
func (cb *ComponentBuilder) Deps(deps *FDSet) *ComponentBuilder {
	cb.c.Deps = deps
	return cb
}

// OutputSchema declares the attribute schema of an output interface,
// enabling seal-key chasing through the component.
func (cb *ComponentBuilder) OutputSchema(iface string, attrs ...string) *ComponentBuilder {
	if cb.c.OutSchema == nil {
		cb.c.OutSchema = map[string]AttrSet{}
	}
	cb.c.OutSchema[iface] = fd.NewAttrSet(attrs...)
	return cb
}

// Graph returns to the enclosing GraphBuilder for further chaining.
func (cb *ComponentBuilder) Graph() *GraphBuilder { return cb.b }

func sortedSealNames(m map[string]AttrSet) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// streamNames lists the streams g declares, for the error that asked is not
// one of them: all of them in name order while they are few, else the few
// nearest to asked — those sharing the longest prefix with it first, then in
// name order — and how many more there are. An error is sent to a client and
// formatted under the session's lock; it does not grow with the graph.
func streamNames(g *dataflow.Graph, asked string) string {
	const few = 8
	streams := g.Streams()
	nearer := cmp.Compare[string]
	if len(streams) > few {
		nearer = func(a, b string) int {
			return cmp.Or(cmp.Compare(commonPrefix(b, asked), commonPrefix(a, asked)), cmp.Compare(a, b))
		}
	}
	nearest := make([]string, 0, few+1)
	for _, s := range streams {
		if len(nearest) == few && nearer(s.Name, nearest[few-1]) >= 0 {
			continue
		}
		i, _ := slices.BinarySearchFunc(nearest, s.Name, nearer)
		nearest = slices.Insert(nearest, i, s.Name)
		nearest = nearest[:min(len(nearest), few)]
	}
	if len(streams) <= few {
		return fmt.Sprint(nearest)
	}
	return fmt.Sprintf("[%s … and %d more]", strings.Join(nearest, " "), len(streams)-few)
}

// commonPrefix returns the length of the longest prefix a and b share.
func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
