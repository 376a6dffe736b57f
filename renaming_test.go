package blazes

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/topogen"
)

// TestRenamingInvariance is ROADMAP item 4(b): the names of components and
// streams are not part of the dataflow, so a bijective renaming must not
// change the analysis. Each generated graph (20 and 200 components, seeds
// 1–4) and each fixture spec (every variant) is renamed so that the sorted
// order of its component names and of its stream names is permuted, and
// synthesized on the one-shot engine and on a session before and after a
// few label edits. Mapped back through the renaming, the renamed graph must
// give the same verdict, every stream the same label and every component
// the same synthesized mechanism; a cycle supernode ("scc+A+B") maps through
// its member set.
func TestRenamingInvariance(t *testing.T) {
	type source struct {
		name string
		g    *Graph
	}
	var sources []source
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
			sources = append(sources, source{fmt.Sprintf("gen-%d-s%d", n, seed), g})
		}
	}
	files, err := filepath.Glob("internal/spec/testdata/*.blazes")
	if err != nil || len(files) == 0 {
		t.Fatalf("no spec fixtures: %v", err)
	}
	for _, f := range files {
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
		for _, opt := range opts {
			g, err := spec.Graph(filepath.Base(f), opt)
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, source{fmt.Sprintf("%s #%d", filepath.Base(f), len(sources)), g})
		}
	}

	ctx := context.Background()
	for i, src := range sources {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		r := newRenaming(src.g, rng)
		renamed := r.apply(src.g)

		want, err := NewAnalyzer().Synthesize(src.g)
		if err != nil {
			t.Fatalf("%s: %v", src.name, err)
		}
		got, err := NewAnalyzer().Synthesize(renamed)
		if err != nil {
			t.Fatalf("%s renamed: %v", src.name, err)
		}
		r.check(t, src.name+" one-shot", got.Report(), want.Report())

		s, err := OpenSession(src.g)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := OpenSession(renamed)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step <= 4; step++ {
			if step > 0 {
				r.labelEdit(t, rng, s, rs)
			}
			want, err := s.Synthesize(ctx)
			if err != nil {
				t.Fatalf("%s step %d: %v", src.name, step, err)
			}
			got, err := rs.Synthesize(ctx)
			if err != nil {
				t.Fatalf("%s renamed, step %d: %v", src.name, step, err)
			}
			r.check(t, fmt.Sprintf("%s session step %d", src.name, step), got, want)
		}
		t.Logf("%s: %d supernodes, %d strategies", src.name, r.supernodes, r.strategies)
	}
}

// renaming is a bijection on a graph's component names and on its stream
// names, and its inverse.
type renaming struct {
	comp, stream           map[string]string
	compBack, streamBk     map[string]string
	supernodes, strategies int
}

// newRenaming permutes the sorted positions of g's component names, and of
// its stream names, and names each entry by its new position: "c000003" is
// the component whose name came fourth. A permutation that moves nothing is
// reversed, so the names' order always changes where it can.
func newRenaming(g *Graph, rng *rand.Rand) *renaming {
	var comps, streams []string
	for _, c := range g.Components() {
		comps = append(comps, c.Name)
	}
	for _, s := range g.Streams() {
		streams = append(streams, s.Name)
	}
	slices.Sort(streams)
	r := &renaming{}
	r.comp, r.compBack = permuteNames(comps, "c", rng)
	r.stream, r.streamBk = permuteNames(streams, "s", rng)
	r.comp[""] = "" // an external endpoint stays external
	return r
}

func permuteNames(sorted []string, prefix string, rng *rand.Rand) (to, back map[string]string) {
	perm := rng.Perm(len(sorted))
	if slices.IsSorted(perm) {
		slices.Reverse(perm)
	}
	to, back = map[string]string{}, map[string]string{}
	for i, name := range sorted {
		fresh := fmt.Sprintf("%s%06d", prefix, perm[i])
		to[name], back[fresh] = fresh, name
	}
	return to, back
}

// apply builds the renamed graph: the same components, paths, interfaces,
// annotations, seals and replication, streams in the same declaration
// order.
func (r *renaming) apply(g *Graph) *Graph {
	ng := dataflow.NewGraph(g.Name)
	for _, c := range g.Components() {
		nc := ng.Component(r.comp[c.Name])
		nc.Rep, nc.Deps, nc.OutSchema, nc.Coordination = c.Rep, c.Deps, c.OutSchema, c.Coordination
		nc.SetPaths(c.Paths)
	}
	for _, s := range g.Streams() {
		ns := ng.Connect(r.stream[s.Name], r.comp[s.FromComp], s.FromIface, r.comp[s.ToComp], s.ToIface)
		ns.Seal, ns.Rep = s.Seal, s.Rep
	}
	return ng
}

// componentBack maps a renamed report's component name to the original
// graph's: a supernode through its member set.
func (r *renaming) componentBack(name string) string {
	members, ok := strings.CutPrefix(name, "scc+")
	if !ok {
		return r.compBack[name]
	}
	var back []string
	for _, m := range strings.Split(members, "+") {
		back = append(back, r.compBack[m])
	}
	slices.Sort(back)
	return "scc+" + strings.Join(back, "+")
}

// labelEdit applies one random annotation or seal edit to the original
// session and the same edit, renamed, to the renamed one.
func (r *renaming) labelEdit(t *testing.T, rng *rand.Rand, s, rs *Session) {
	t.Helper()
	g := s.Graph()
	if rng.Intn(2) == 0 {
		comps := g.Components()
		c := comps[rng.Intn(len(comps))]
		p := c.Paths[rng.Intn(len(c.Paths))]
		ann := randAnn(rng)
		if err := s.Annotate(c.Name, p.From, p.To, ann); err != nil {
			t.Fatal(err)
		}
		if err := rs.Annotate(r.comp[c.Name], p.From, p.To, ann); err != nil {
			t.Fatal(err)
		}
		return
	}
	streams := g.Streams()
	st := streams[rng.Intn(len(streams))]
	key := randAttrs(rng)
	if err := s.SealStream(st.Name, key...); err != nil {
		t.Fatal(err)
	}
	if err := rs.SealStream(r.stream[st.Name], key...); err != nil {
		t.Fatal(err)
	}
}

// check holds the renamed graph's report to the original's: the verdict,
// every stream's label and every component's synthesized mechanism.
func (r *renaming) check(t *testing.T, name string, got, want *Report) {
	t.Helper()
	if got.Deterministic != want.Deterministic || !labelReportEqual(got.Verdict, want.Verdict) {
		t.Errorf("%s: verdict %+v (deterministic %v), want %+v (%v)", name, got.Verdict, got.Deterministic, want.Verdict, want.Deterministic)
	}
	labels := map[string]LabelReport{}
	for _, s := range got.Streams {
		labels[r.streamBk[s.Name]] = s.Label
	}
	for _, s := range want.Streams {
		l, ok := labels[s.Name]
		if !ok {
			t.Errorf("%s: stream %s (renamed %s) missing from the renamed report", name, s.Name, r.stream[s.Name])
		} else if !labelReportEqual(l, s.Label) {
			t.Errorf("%s: stream %s (renamed %s) labelled %+v, want %+v", name, s.Name, r.stream[s.Name], l, s.Label)
		}
	}
	if len(got.Streams) != len(want.Streams) {
		t.Errorf("%s: %d streams, want %d", name, len(got.Streams), len(want.Streams))
	}
	mechanisms := func(rep *Report, back func(string) string) map[string]string {
		m := map[string]string{}
		for _, st := range rep.Strategies {
			m[back(st.Component)] = st.Mechanism
		}
		return m
	}
	for _, c := range got.Components {
		if strings.HasPrefix(c.Name, "scc+") {
			r.supernodes++
		}
	}
	r.strategies += len(got.Strategies)
	gotMech := mechanisms(got, r.componentBack)
	wantMech := mechanisms(want, func(s string) string { return s })
	if !maps.Equal(gotMech, wantMech) {
		t.Errorf("%s: mechanisms %v, want %v", name, gotMech, wantMech)
	}
}
