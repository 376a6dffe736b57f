package blazes

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/topogen"
)

// TestMonotonicity is ROADMAP item 4(a): the label algebra of Figures 7–10
// is monotone, so giving the analysis more to work with never makes its
// answer worse. Two laws, each checked as "no stream's label and not the
// verdict rises in severity":
//
//   - a seal, or a strategy, is added: a source stream sealed on the gate of
//     an order-sensitive path it feeds (a seal that path can use), or a
//     component given an ordering or sealing mechanism;
//   - an annotation is weakened toward confluence: OW (gated or *) becomes
//     CW, and OR becomes CR.
//
// Two cases are left out because the paper's algebra does not satisfy the
// law there. Dynamic ordering (M2): Figure 5 gives it cross-run
// nondeterminism whatever the component, so an M2 component's outputs are
// floored at Run, and installing M2 where the output was Async makes it
// worse. And a component that reads a Run input through an order-sensitive
// read path: Figure 9's Rule 1 turns {Async, Run} × OR into NDRead, and
// Figure 10 finds a read with nothing else at its interface protected, so
// the output is Async, while the confluent path (a weakened annotation, or
// an ordering strategy's) carries the Run through. Edits on such a
// component are counted and skipped.
//
// Each law is checked on the one-shot engine over generated graphs (20 and
// 200 components, seeds 1–4) and the fixture specs, and on a session
// mid-script: a few random label edits, then the monotone edit, then more
// edits, each report held to one that did not make the edit. A strategy
// has no session edit, so that law runs two sessions in lockstep, one
// opened on the graph with the strategy installed.
func TestMonotonicity(t *testing.T) {
	graphs := monotonicityGraphs(t)
	ctx := context.Background()
	var checked, skipped int
	for gi, g := range graphs {
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		base := analyzeLabels(t, g)
		readers := runReaders(t, g)

		for _, e := range monotoneEdits(g, rng) {
			if readers[e.comp] {
				skipped++
				continue
			}
			checked++
			ng := g.Clone()
			e.apply(ng)
			noWorse(t, fmt.Sprintf("%s: %s", g.Name, e.name), base, analyzeLabels(t, ng))
		}

		// A session mid-script: the seal and weakening edits, each applied
		// at a random step of a random label-edit script.
		for _, e := range monotoneEdits(g, rng) {
			if e.session == nil {
				continue
			}
			s, err := OpenSession(g)
			if err != nil {
				t.Fatal(err)
			}
			for range 1 + rng.Intn(3) {
				scriptEdit(t, rng, s)
			}
			if runReaders(t, s.Graph())[e.comp] {
				skipped++
				continue
			}
			checked++
			before, err := s.Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.session(s); err != nil {
				t.Fatal(err)
			}
			after, err := s.Analyze(ctx)
			if err != nil {
				t.Fatal(err)
			}
			noWorse(t, fmt.Sprintf("%s session: %s", g.Name, e.name), reportLabels(before), reportLabels(after))
		}

		// The strategy law in lockstep: the same script on the graph and on
		// the graph with one strategy installed.
		comps := g.Components()
		c := comps[rng.Intn(len(comps))]
		for _, mech := range monotoneMechanisms {
			coordinated := g.Clone()
			coordinated.Lookup(c.Name).Coordination = mech
			s, err := OpenSession(g)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := OpenSession(coordinated)
			if err != nil {
				t.Fatal(err)
			}
			script := rand.New(rand.NewSource(rng.Int63()))
			mirror := rand.New(rand.NewSource(0))
			for step := range 4 {
				seed := script.Int63()
				if step > 0 {
					mirror.Seed(seed)
					scriptEdit(t, mirror, s)
					mirror.Seed(seed)
					scriptEdit(t, mirror, cs)
				}
				if mech != dataflow.CoordSealed && mech != dataflow.CoordPartitionSealed && runReaders(t, s.Graph())[c.Name] {
					skipped++
					continue
				}
				checked++
				want, err := s.Analyze(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cs.Analyze(ctx)
				if err != nil {
					t.Fatal(err)
				}
				noWorse(t, fmt.Sprintf("%s session step %d: %s on %s", g.Name, step, mech, c.Name), reportLabels(want), reportLabels(got))
			}
		}
	}
	t.Logf("%d edits checked over %d graphs, %d skipped: their component reads a Run input through an order-sensitive read path", checked, len(graphs), skipped)
	if checked < 10*skipped {
		t.Errorf("only %d edits checked against %d skipped", checked, skipped)
	}
}

// runReaders names the components of g that read a Run input through an
// order-sensitive read path (Rule 1), each member of such a cycle too.
func runReaders(t *testing.T, g *Graph) map[string]bool {
	t.Helper()
	a, err := dataflow.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	readers := map[string]bool{}
	for ca := range a.Components() {
		for step := range ca.Steps() {
			if step.Rule == core.Rule1 && step.In.Kind == core.LRun {
				name := ca.Component.Name
				members, ok := strings.CutPrefix(name, "scc+")
				if !ok {
					members = name
				}
				for _, m := range strings.Split(members, "+") {
					readers[m] = true
				}
				break
			}
		}
	}
	return readers
}

// monotoneMechanisms are the strategies the law covers: every mechanism but
// CoordNone and dynamic ordering (see TestMonotonicity).
var monotoneMechanisms = []dataflow.Coordination{
	dataflow.CoordSequenced, dataflow.CoordQuorumOrder, dataflow.CoordSealed, dataflow.CoordPartitionSealed,
}

// monotonicityGraphs returns the graphs the laws run over: generated graphs
// and every variant of each fixture spec.
func monotonicityGraphs(t *testing.T) []*Graph {
	t.Helper()
	var out []*Graph
	for _, n := range []int{20, 200} {
		for seed := int64(1); seed <= 4; seed++ {
			res, err := topogen.Generate(topogen.Default(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := ParseSpec(res.Spec)
			if err != nil {
				t.Fatal(err)
			}
			g, err := spec.Graph(fmt.Sprintf("gen-%d-s%d", n, seed))
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	for _, f := range []string{"internal/spec/testdata/wordcount.blazes", "internal/spec/testdata/adreport.blazes"} {
		spec, err := LoadSpec(f)
		if err != nil {
			t.Fatal(err)
		}
		var opts []Option
		for _, comp := range spec.Components() {
			variants, _ := spec.Variants(comp)
			for _, v := range variants {
				opts = append(opts, WithVariant(comp, v))
			}
		}
		if len(opts) == 0 {
			opts = append(opts, WithVariants(nil))
		}
		for i, opt := range opts {
			g, err := spec.Graph(fmt.Sprintf("%s#%d", f, i), opt)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, g)
		}
	}
	return out
}

// monotoneEdit is one edit a law says cannot make the analysis worse: apply
// makes it on a graph, session (nil for a strategy) through a session.
type monotoneEdit struct {
	name    string
	comp    string // the component an annotation or ordering edit touches
	apply   func(*Graph)
	session func(*Session) error
}

// monotoneEdits draws a law's edits on g: every source stream sealed on the
// gate of each order-sensitive path it feeds, every order-sensitive path of
// up to 12 components weakened, and each covered strategy on up to 6
// components.
func monotoneEdits(g *Graph, rng *rand.Rand) []monotoneEdit {
	var edits []monotoneEdit
	for _, s := range g.Streams() {
		if !s.IsSource() {
			continue
		}
		consumer := g.Lookup(s.ToComp)
		for _, p := range consumer.Paths {
			if p.From != s.ToIface || p.Ann.Confluent || p.Ann.GateStar || p.Ann.Gate.IsEmpty() {
				continue
			}
			key := p.Ann.Gate.Attrs()
			name := s.Name
			edits = append(edits, monotoneEdit{
				name:    fmt.Sprintf("seal %s on %v", name, key),
				apply:   func(g *Graph) { g.Stream(name).Seal = fd.NewAttrSet(key...) },
				session: func(s *Session) error { return s.SealStream(name, key...) },
			})
		}
	}
	comps := g.Components()
	for _, k := range rng.Perm(len(comps))[:min(12, len(comps))] {
		c := comps[k]
		for i, p := range c.Paths {
			if p.Ann.Confluent {
				continue
			}
			weak := Annotation{Confluent: true, Write: p.Ann.Write}
			name := c.Name
			edits = append(edits, monotoneEdit{
				name: fmt.Sprintf("weaken %s %s→%s %s to %s", name, p.From, p.To, p.Ann, weak),
				comp: name,
				apply: func(g *Graph) {
					c := g.Lookup(name)
					paths := slices.Clone(c.Paths)
					paths[i].Ann = weak
					c.SetPaths(paths)
				},
				session: func(s *Session) error { return s.Annotate(name, p.From, p.To, weak) },
			})
		}
	}
	for _, k := range rng.Perm(len(comps))[:min(6, len(comps))] {
		name := comps[k].Name
		for _, mech := range monotoneMechanisms {
			e := monotoneEdit{
				name:  fmt.Sprintf("install %s on %s", mech, name),
				apply: func(g *Graph) { g.Lookup(name).Coordination = mech },
			}
			if mech == dataflow.CoordSequenced || mech == dataflow.CoordQuorumOrder {
				e.comp = name // an ordering makes the component's paths confluent
			}
			edits = append(edits, e)
		}
	}
	return edits
}

// scriptEdit applies one random label edit: a path's annotation or a
// stream's seal, either of which may make the analysis better or worse.
func scriptEdit(t *testing.T, rng *rand.Rand, s *Session) {
	t.Helper()
	g := s.Graph()
	if rng.Intn(2) == 0 {
		comps := g.Components()
		c := comps[rng.Intn(len(comps))]
		p := c.Paths[rng.Intn(len(c.Paths))]
		if err := s.Annotate(c.Name, p.From, p.To, randAnn(rng)); err != nil {
			t.Fatal(err)
		}
		return
	}
	streams := g.Streams()
	if err := s.SealStream(streams[rng.Intn(len(streams))].Name, randAttrs(rng)...); err != nil {
		t.Fatal(err)
	}
}

// severities is an analysis as the laws compare it: each stream's label
// severity, and the verdict's under the empty name.
type severities map[string]int

func analyzeLabels(t *testing.T, g *Graph) severities {
	t.Helper()
	a, err := dataflow.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	out := severities{"": a.Verdict.Severity()}
	for s, l := range a.Streams() {
		out[s.Name] = l.Severity()
	}
	return out
}

func reportLabels(r *Report) severities {
	out := severities{"": r.Verdict.Severity}
	for _, s := range r.Streams {
		out[s.Name] = s.Label.Severity
	}
	return out
}

// noWorse fails when a label or the verdict rose from before to after.
func noWorse(t *testing.T, what string, before, after severities) {
	t.Helper()
	for name, sev := range after {
		if was, ok := before[name]; ok && sev > was {
			if name == "" {
				name = "the verdict"
			}
			t.Errorf("%s: %s rose from severity %d to %d", what, name, was, sev)
			return
		}
	}
}
