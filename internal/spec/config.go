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
	// Variants maps a variant name (e.g. a query) to its annotation.
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
	byName     map[string]*ComponentSpec
}

// Component returns the named component spec, or nil.
func (c *Config) Component(name string) *ComponentSpec { return c.byName[name] }

// reserved component-level keys; any other key with a flow-map value is a
// named annotation variant.
const (
	keyAnnotation = "annotation"
	keyRep        = "Rep"
	keySchema     = "schema"
	keyTopology   = "topology"
)

// Parse reads a Blazes configuration document.
func Parse(src string) (*Config, error) {
	doc, err := ParseDocument(src)
	if err != nil {
		return nil, err
	}
	cfg := &Config{byName: map[string]*ComponentSpec{}}
	for _, key := range doc.Keys() {
		v, _ := doc.Get(key)
		if key == keyTopology {
			if err := cfg.parseTopology(v); err != nil {
				return nil, err
			}
			continue
		}
		comp, err := parseComponent(key, v)
		if err != nil {
			return nil, err
		}
		cfg.Components = append(cfg.Components, comp)
	}
	for i := range cfg.Components {
		cfg.byName[cfg.Components[i].Name] = &cfg.Components[i]
	}
	return cfg, nil
}

func parseComponent(name string, v Value) (ComponentSpec, error) {
	comp := ComponentSpec{Name: name, Variants: map[string]AnnotationSpec{}}
	m, ok := v.(*Map)
	if !ok {
		return comp, fmt.Errorf("spec: component %q must be a mapping", name)
	}
	for _, key := range m.Keys() {
		val, _ := m.Get(key)
		switch key {
		case keyRep:
			b, ok := val.(bool)
			if !ok {
				return comp, fmt.Errorf("spec: component %q: Rep must be a boolean", name)
			}
			comp.Rep = b
		case keyAnnotation:
			anns, err := parseAnnotations(name, val)
			if err != nil {
				return comp, err
			}
			comp.Annotations = append(comp.Annotations, anns...)
		case keySchema:
			schema, err := parseSchema(name, val)
			if err != nil {
				return comp, err
			}
			comp.Schema = schema
		default:
			// Named variant: value must be a single annotation map.
			am, ok := val.(*Map)
			if !ok {
				return comp, fmt.Errorf("spec: component %q: key %q must be an annotation map", name, key)
			}
			ann, err := parseAnnotation(name, am)
			if err != nil {
				return comp, err
			}
			comp.Variants[key] = ann
			comp.VariantOrder = append(comp.VariantOrder, key)
		}
	}
	return comp, nil
}

// parseSchema reads the reserved `schema` component key: a mapping from
// output interface name to a list of attribute names. It must be handled
// before the variant fallback — its value is a mapping too, but its inner
// values are lists, not annotation maps.
func parseSchema(comp string, v Value) (map[string][]string, error) {
	m, ok := v.(*Map)
	if !ok {
		return nil, fmt.Errorf("spec: component %q: schema must be a mapping of interface to attribute list", comp)
	}
	out := map[string][]string{}
	for _, iface := range m.Keys() {
		val, _ := m.Get(iface)
		list, ok := val.([]Value)
		if !ok {
			return nil, fmt.Errorf("spec: component %q: schema for %q must be a list of attribute names", comp, iface)
		}
		attrs := make([]string, 0, len(list))
		for _, item := range list {
			s, ok := item.(string)
			if !ok {
				return nil, fmt.Errorf("spec: component %q: schema attributes for %q must be strings", comp, iface)
			}
			attrs = append(attrs, s)
		}
		out[iface] = attrs
	}
	return out, nil
}

func parseAnnotations(comp string, v Value) ([]AnnotationSpec, error) {
	switch val := v.(type) {
	case []Value:
		var out []AnnotationSpec
		for _, item := range val {
			m, ok := item.(*Map)
			if !ok {
				return nil, fmt.Errorf("spec: component %q: annotation entries must be maps", comp)
			}
			ann, err := parseAnnotation(comp, m)
			if err != nil {
				return nil, err
			}
			out = append(out, ann)
		}
		return out, nil
	case *Map:
		ann, err := parseAnnotation(comp, val)
		if err != nil {
			return nil, err
		}
		return []AnnotationSpec{ann}, nil
	default:
		return nil, fmt.Errorf("spec: component %q: annotation must be a map or list of maps", comp)
	}
}

func parseAnnotation(comp string, m *Map) (AnnotationSpec, error) {
	var ann AnnotationSpec
	for _, key := range m.Keys() {
		v, _ := m.Get(key)
		switch key {
		case "from":
			ann.From, _ = v.(string)
		case "to":
			ann.To, _ = v.(string)
		case "label":
			ann.Label, _ = v.(string)
		case "subscript":
			list, ok := v.([]Value)
			if !ok {
				return ann, fmt.Errorf("spec: component %q: subscript must be a list", comp)
			}
			for _, item := range list {
				s, ok := item.(string)
				if !ok {
					return ann, fmt.Errorf("spec: component %q: subscript entries must be strings", comp)
				}
				ann.Subscript = append(ann.Subscript, s)
			}
		default:
			return ann, fmt.Errorf("spec: component %q: unknown annotation field %q", comp, key)
		}
	}
	if ann.From == "" || ann.To == "" || ann.Label == "" {
		return ann, fmt.Errorf("spec: component %q: annotation needs from, to and label", comp)
	}
	return ann, nil
}

func (c *Config) parseTopology(v Value) error {
	m, ok := v.(*Map)
	if !ok {
		return fmt.Errorf("spec: topology must be a mapping")
	}
	for _, section := range m.Keys() {
		val, _ := m.Get(section)
		list, ok := val.([]Value)
		if !ok {
			return fmt.Errorf("spec: topology %s must be a list", section)
		}
		for _, item := range list {
			em, ok := item.(*Map)
			if !ok {
				return fmt.Errorf("spec: topology %s entries must be maps", section)
			}
			st, err := parseStream(section, em)
			if err != nil {
				return err
			}
			switch section {
			case "sources":
				if st.To == "" {
					return fmt.Errorf("spec: source %q needs `to`", st.Name)
				}
			case "sinks":
				if st.From == "" {
					return fmt.Errorf("spec: sink %q needs `from`", st.Name)
				}
			case "streams":
				if st.From == "" || st.To == "" {
					return fmt.Errorf("spec: stream %q needs `from` and `to`", st.Name)
				}
			default:
				return fmt.Errorf("spec: unknown topology section %q", section)
			}
			c.Streams = append(c.Streams, st)
		}
	}
	return nil
}

func parseStream(section string, m *Map) (StreamSpec, error) {
	var st StreamSpec
	sealStrings := true
	for _, key := range m.Keys() {
		v, _ := m.Get(key)
		switch key {
		case "name":
			st.Name, _ = v.(string)
		case "from":
			st.From, _ = v.(string)
		case "to":
			st.To, _ = v.(string)
		case "seal":
			list, ok := v.([]Value)
			if !ok {
				return st, fmt.Errorf("spec: %s: seal must be a list", section)
			}
			for _, item := range list {
				// A bare on/yes/no/true/… is a boolean to the scalar
				// parser, not the attribute the author meant.
				s, ok := item.(string)
				sealStrings = sealStrings && ok
				st.Seal = append(st.Seal, s)
			}
		case "Rep", "rep":
			b, ok := v.(bool)
			if !ok {
				return st, fmt.Errorf("spec: %s: rep must be a boolean", section)
			}
			st.Rep = b
		default:
			return st, fmt.Errorf("spec: %s: unknown field %q", section, key)
		}
	}
	if st.Name == "" {
		return st, fmt.Errorf("spec: %s entries need a name", section)
	}
	if !sealStrings { // reported here: the name may follow the seal in the entry
		return st, fmt.Errorf("spec: %s: stream %q: seal entries must be strings (quote words like on/yes/no/true)", section, st.Name)
	}
	return st, nil
}

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
	for _, comp := range c.Components {
		dc := g.Component(comp.Name)
		dc.Rep = comp.Rep
		if len(comp.Schema) > 0 {
			dc.OutSchema = make(map[string]fd.AttrSet, len(comp.Schema))
			for iface, attrs := range comp.Schema {
				dc.OutSchema[iface] = fd.NewAttrSet(attrs...)
			}
		}
		anns := append([]AnnotationSpec(nil), comp.Annotations...)
		if variant, ok := opts.Variants[comp.Name]; ok {
			spec, found := comp.Variants[variant]
			if !found {
				return nil, fmt.Errorf("spec: component %q has no variant %q (have %v)",
					comp.Name, variant, comp.VariantOrder)
			}
			anns = append(anns, spec)
		}
		for _, a := range anns {
			ann, err := core.ParseAnnotation(a.Label, a.Subscript)
			if err != nil {
				return nil, fmt.Errorf("spec: component %q: %w", comp.Name, err)
			}
			dc.AddPath(a.From, a.To, ann)
		}
	}
	for _, st := range c.Streams {
		fromComp, fromIface, err := splitEndpoint(st.From)
		if err != nil {
			return nil, fmt.Errorf("spec: stream %q: %w", st.Name, err)
		}
		toComp, toIface, err := splitEndpoint(st.To)
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
	anns := append([]AnnotationSpec(nil), comp.Annotations...)
	if variant != "" {
		spec, ok := comp.Variants[variant]
		if !ok {
			return nil, fmt.Errorf("spec: component %q has no variant %q (have %v)",
				name, variant, comp.VariantOrder)
		}
		anns = append(anns, spec)
	}
	var paths []dataflow.Path
	for _, a := range anns {
		ann, err := core.ParseAnnotation(a.Label, a.Subscript)
		if err != nil {
			return nil, fmt.Errorf("spec: component %q: %w", name, err)
		}
		paths = append(paths, dataflow.Path{From: a.From, To: a.To, Ann: ann})
	}
	return paths, nil
}

// SplitEndpoint splits a "Component.iface" endpoint ("" stays empty for
// source/sink ends) — the wire syntax the topology section and the service
// mutate ops share.
func SplitEndpoint(s string) (comp, iface string, err error) { return splitEndpoint(s) }

// splitEndpoint splits "Component.iface" ("" stays empty for source/sink
// ends).
func splitEndpoint(s string) (comp, iface string, err error) {
	if s == "" {
		return "", "", nil
	}
	i := strings.LastIndex(s, ".")
	if i <= 0 || i == len(s)-1 {
		return "", "", fmt.Errorf("endpoint %q must look like Component.iface", s)
	}
	return s[:i], s[i+1:], nil
}
