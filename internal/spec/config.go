package spec

import (
	"fmt"
	"strings"

	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
)

// AnnotationSpec is one `{ from: ..., to: ..., label: ..., subscript: [...] }`
// entry from a Blazes configuration file.
type AnnotationSpec struct {
	From, To  string
	Label     string
	Subscript []string
}

// ComponentSpec carries a component's annotations from the configuration
// file: the always-on annotations plus named variants (the paper's ad-report
// file names one annotation per query — POOR, THRESH, WINDOW, CAMPAIGN —
// for the same request→response path).
type ComponentSpec struct {
	Name        string
	Rep         bool
	Annotations []AnnotationSpec
	// Variants maps a variant name (e.g. a query) to its annotation; nil
	// for a component without variants.
	Variants map[string]AnnotationSpec
	// VariantOrder preserves file order of variant names.
	VariantOrder []string
	// Schema maps output interface names to their attribute lists — the
	// optional white-box declaration behind seal-key chasing and the
	// schema-aware lint checks.
	Schema map[string][]string
}

// StreamSpec describes one topology edge.
type StreamSpec struct {
	Name     string
	From, To string // "Component.iface"; empty for sources/sinks
	Seal     []string
	Rep      bool
}

// Config is a parsed Blazes configuration: component annotations plus
// topology.
type Config struct {
	Components []ComponentSpec
	Streams    []StreamSpec
	byName     map[string]int // index into Components
}

// Component returns the named component spec, or nil.
func (c *Config) Component(name string) *ComponentSpec {
	if i, ok := c.byName[name]; ok {
		return &c.Components[i]
	}
	return nil
}

// reserved component-level keys; any other key with a flow-map value is a
// named annotation variant.
const (
	keyAnnotation = "annotation"
	keyRep        = "Rep"
	keySchema     = "schema"
	keyTopology   = "topology"
)

// BuildOptions selects annotation variants when building a graph.
type BuildOptions struct {
	// Variants maps component name → variant name (e.g. "Report" →
	// "CAMPAIGN"). Components with variants but no selection use none.
	Variants map[string]string
}

// Graph builds a dataflow graph from the configuration. Components use
// their base annotations plus the selected variant, and the topology
// section supplies sources, streams and sinks.
func (c *Config) Graph(name string, opts BuildOptions) (*dataflow.Graph, error) {
	g := dataflow.NewGraph(name)
	for i := range c.Components {
		comp := &c.Components[i]
		dc := g.Component(comp.Name)
		dc.Rep = comp.Rep
		if len(comp.Schema) > 0 {
			dc.OutSchema = make(map[string]fd.AttrSet, len(comp.Schema))
			for iface, attrs := range comp.Schema {
				dc.OutSchema[iface] = fd.NewAttrSet(attrs...)
			}
		}
		variant, selected := opts.Variants[comp.Name]
		var buf [4]dataflow.Path
		paths, err := comp.paths(buf[:0], variant, selected)
		if err != nil {
			return nil, err
		}
		for _, p := range paths {
			dc.AddPath(p.From, p.To, p.Ann)
		}
	}
	for _, st := range c.Streams {
		fromComp, fromIface, err := SplitEndpoint(st.From)
		if err != nil {
			return nil, fmt.Errorf("spec: stream %q: %w", st.Name, err)
		}
		toComp, toIface, err := SplitEndpoint(st.To)
		if err != nil {
			return nil, fmt.Errorf("spec: stream %q: %w", st.Name, err)
		}
		s := g.Connect(st.Name, fromComp, fromIface, toComp, toIface)
		if len(st.Seal) > 0 {
			s.Seal = fd.NewAttrSet(st.Seal...)
		}
		s.Rep = st.Rep
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// VariantPaths resolves the annotated paths a component would get when the
// given variant is selected ("" selects the base annotations only). It is
// what lets an analysis session re-select a variant without rebuilding the
// whole graph.
func (c *Config) VariantPaths(name, variant string) ([]dataflow.Path, error) {
	comp := c.Component(name)
	if comp == nil {
		return nil, fmt.Errorf("spec: unknown component %q", name)
	}
	return comp.paths(nil, variant, variant != "")
}

// paths appends to dst the component's base annotations, then the named
// variant's when one is selected, resolved to dataflow paths.
func (comp *ComponentSpec) paths(dst []dataflow.Path, variant string, selected bool) ([]dataflow.Path, error) {
	anns := comp.Annotations
	if selected {
		a, found := comp.Variants[variant]
		if !found {
			return nil, fmt.Errorf("spec: component %q has no variant %q (have %v)",
				comp.Name, variant, comp.VariantOrder)
		}
		anns = append(anns[:len(anns):len(anns)], a) // copies: the base list stays as parsed
	}
	for _, a := range anns {
		ann, err := core.ParseAnnotation(a.Label, a.Subscript)
		if err != nil {
			return nil, fmt.Errorf("spec: component %q: %w", comp.Name, err)
		}
		dst = append(dst, dataflow.Path{From: a.From, To: a.To, Ann: ann})
	}
	return dst, nil
}

// SplitEndpoint splits a "Component.iface" endpoint ("" stays empty for
// source/sink ends) — the wire syntax the topology section and the service
// mutate ops share.
func SplitEndpoint(s string) (comp, iface string, err error) {
	if s == "" {
		return "", "", nil
	}
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("endpoint %q must look like Component.iface", s)
	}
	return s[:i], s[i+1:], nil
}
