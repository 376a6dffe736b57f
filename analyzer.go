package blazes

import (
	"fmt"
	"slices"

	"blazes/internal/dataflow"
	"blazes/internal/fd"
)

// Option configures an Analyzer (and spec→graph construction).
type Option func(*config)

type sealRepair struct {
	stream string
	key    AttrSet
}

type config struct {
	sealRepairs []sealRepair
	variants    map[string]string
	// prefer lists the strategies synthesis tries before its default
	// chain (dataflow.SynthesisOptions.Prefer).
	prefer []string
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// checkStrategies rejects a WithStrategy name that is unknown.
func (c *config) checkStrategies() error {
	if err := dataflow.CheckStrategies(c.prefer); err != nil {
		return fmt.Errorf("blazes: %w", err)
	}
	return nil
}

// applySealRepairs sets the configured seals on g's streams, in option
// order; g is the caller's private copy.
func (c *config) applySealRepairs(g *Graph) error {
	for _, sr := range c.sealRepairs {
		s := g.Stream(sr.stream)
		if s == nil {
			return fmt.Errorf("blazes: seal repair: unknown stream %q (declared: %v)", sr.stream, streamNames(g, sr.stream))
		}
		if sr.key.IsEmpty() {
			return fmt.Errorf("blazes: seal repair on %q needs at least one key attribute", sr.stream)
		}
		s.Seal = sr.key
	}
	return nil
}

// WithSealRepair seals the named stream on the given key before analysis —
// the paper's cheapest repair: tell Blazes the producer punctuates the
// stream per partition, and re-derive. The graph handed to the Analyzer is
// not mutated; analysis runs on a sealed copy. An unknown stream name is an
// error at analysis time.
func WithSealRepair(stream string, key ...string) Option {
	return func(c *config) {
		c.sealRepairs = append(c.sealRepairs, sealRepair{stream: stream, key: fd.NewAttrSet(key...)})
	}
}

// WithStrategy asks synthesis to try the named coordination strategies, in
// order, before the default sealing-then-ordering chain. A strategy still
// only applies where its preconditions hold (e.g. "partition-sealing" needs
// inputs sealed on a compatible key); where none does, synthesis falls back
// to the defaults, so the guarantee never weakens. WithStrategy("sealing", "sequencing")
// selects M1 (preordained total order, e.g. Storm transactional batch ids)
// wherever the default chain would order inputs with M2 while a sealable
// component keeps its seal — what replay-based fault tolerance needs;
// WithStrategy("sequencing") instead tries M1 first everywhere. The names
// are listed by the blazes/strategy package; an unknown name is an error
// at analysis time. A later WithStrategy replaces an earlier one.
func WithStrategy(names ...string) Option {
	return func(c *config) { c.prefer = slices.Clone(names) }
}

// WithVariant selects a named annotation variant for a component when a
// graph is built from a Spec (e.g. WithVariant("Report", "CAMPAIGN")). It
// has no effect on graphs built in code.
func WithVariant(component, variant string) Option {
	return func(c *config) {
		if c.variants == nil {
			c.variants = map[string]string{}
		}
		c.variants[component] = variant
	}
}

// WithVariants selects several variants at once; see WithVariant.
func WithVariants(variants map[string]string) Option {
	return func(c *config) {
		if c.variants == nil {
			c.variants = map[string]string{}
		}
		for comp, v := range variants {
			c.variants[comp] = v
		}
	}
}

// Analyzer is the façade over the Blazes analysis: it derives stream
// labels, synthesizes coordination strategies, and repairs dataflows to a
// coordination fixpoint. A zero-option Analyzer performs the plain grey-box
// analysis. Analyzers are immutable and safe for concurrent use.
type Analyzer struct {
	cfg config
}

// NewAnalyzer builds an Analyzer from functional options.
func NewAnalyzer(opts ...Option) *Analyzer {
	return &Analyzer{cfg: buildConfig(opts)}
}

// prepare validates the configured strategy and applies seal repairs to a
// copy of g (or returns g unchanged when there are none).
func (a *Analyzer) prepare(g *Graph) (*Graph, error) {
	if err := a.cfg.checkStrategies(); err != nil {
		return nil, err
	}
	if len(a.cfg.sealRepairs) == 0 {
		return g, nil
	}
	ng := g.Clone()
	if err := a.cfg.applySealRepairs(ng); err != nil {
		return nil, err
	}
	return ng, nil
}

func (a *Analyzer) synthOpts() dataflow.SynthesisOptions {
	return dataflow.SynthesisOptions{Prefer: a.cfg.prefer}
}

// Analyze derives a label for every stream and the dataflow verdict.
func (a *Analyzer) Analyze(g *Graph) (*Result, error) {
	g, err := a.prepare(g)
	if err != nil {
		return nil, err
	}
	an, err := dataflow.Analyze(g)
	if err != nil {
		return nil, err
	}
	return &Result{analysis: an}, nil
}

// Synthesize analyzes g and additionally produces one coordination
// strategy per component that needs machinery.
func (a *Analyzer) Synthesize(g *Graph) (*Result, error) {
	res, err := a.Analyze(g)
	if err != nil {
		return nil, err
	}
	res.strategies = dataflow.Synthesize(res.analysis, a.synthOpts())
	res.synthesized = true
	return res, nil
}

// Repair analyzes g, applies synthesized strategies, and re-analyzes until
// no further strategies are produced. The Result carries the final
// analysis; Strategies lists every strategy applied, in application order.
func (a *Analyzer) Repair(g *Graph) (*Result, error) {
	g, err := a.prepare(g)
	if err != nil {
		return nil, err
	}
	an, applied, err := dataflow.Repair(g, a.synthOpts())
	if err != nil {
		return nil, err
	}
	return &Result{analysis: an, strategies: applied, synthesized: true, repaired: true}, nil
}

// Result is the outcome of one Analyzer run: the raw analysis plus any
// synthesized (or applied, after Repair) strategies. Use Report for the
// stable machine-readable projection.
type Result struct {
	analysis    *dataflow.Analysis
	strategies  []Strategy
	synthesized bool
	repaired    bool
}

// Analysis exposes the underlying derivation for tools that walk it.
func (r *Result) Analysis() *Analysis { return r.analysis }

// Verdict is the highest-severity label among sink streams.
func (r *Result) Verdict() Label { return r.analysis.Verdict }

// Deterministic reports whether output contents are guaranteed
// deterministic (verdict at most Async).
func (r *Result) Deterministic() bool { return r.analysis.Deterministic() }

// StreamLabel returns the derived label of the named stream.
func (r *Result) StreamLabel(name string) Label { return r.analysis.Label(name) }

// Strategies returns the synthesized strategies (after Synthesize) or the
// strategies applied to reach the fixpoint (after Repair); nil after a
// plain Analyze.
func (r *Result) Strategies() []Strategy { return r.strategies }

// Repaired reports whether the result is a post-repair fixpoint.
func (r *Result) Repaired() bool { return r.repaired }

// Explain renders the full human-readable derivation tree.
func (r *Result) Explain() string { return r.analysis.Explain() }
