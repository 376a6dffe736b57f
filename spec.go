package blazes

import (
	"os"
	"path/filepath"
	"sort"
	"strings"

	"blazes/internal/spec"
)

// Spec is a parsed Blazes configuration file (the paper's "grey box" input,
// Figure 1): component annotations — with optional named variants — plus a
// topology section. Build a Graph from it with Graph, selecting variants
// via WithVariant options.
type Spec struct {
	cfg *spec.Config
}

// ParseSpec parses a Blazes configuration document.
func ParseSpec(src string) (*Spec, error) {
	cfg, err := spec.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Spec{cfg: cfg}, nil
}

// LoadSpec reads and parses a Blazes configuration file.
func LoadSpec(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseSpec(string(src))
}

// SpecName derives a dataflow name from a spec file path (the base name
// without its extension) — what `blazes -spec` uses when naming the graph.
func SpecName(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// Graph builds a dataflow graph from the spec. Variant selections are
// taken from WithVariant/WithVariants options; other options are ignored
// here (pass them to the Analyzer instead).
func (s *Spec) Graph(name string, opts ...Option) (*Graph, error) {
	return s.graph(name, buildConfig(opts))
}

// graph builds and validates a new graph with cfg's variant selections.
func (s *Spec) graph(name string, cfg config) (*Graph, error) {
	bopts := spec.BuildOptions{Variants: map[string]string{}}
	for comp, v := range cfg.variants {
		bopts.Variants[comp] = v
	}
	return s.cfg.Graph(name, bopts)
}

// Components returns the component names declared in the spec, in file
// order.
func (s *Spec) Components() []string {
	out := make([]string, 0, len(s.cfg.Components))
	for _, c := range s.cfg.Components {
		out = append(out, c.Name)
	}
	return out
}

// Variants returns the variant names a component declares (empty when the
// component has none), in file order; ok reports whether the component
// exists.
func (s *Spec) Variants(component string) (variants []string, ok bool) {
	c := s.cfg.Component(component)
	if c == nil {
		return nil, false
	}
	return append([]string(nil), c.VariantOrder...), true
}

// Streams returns the stream names the topology declares, sorted.
func (s *Spec) Streams() []string {
	out := make([]string, 0, len(s.cfg.Streams))
	for _, st := range s.cfg.Streams {
		out = append(out, st.Name)
	}
	sort.Strings(out)
	return out
}
