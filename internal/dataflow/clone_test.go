package dataflow_test

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/spec"
	"blazes/internal/topogen"
)

// cloneCases are the graphs Clone is held to: generated topologies at three
// sizes and four seeds, and both fixture specs. Each builder returns a fresh,
// equal graph on every call, so one build can be mutated while another
// stands for what it held before. Every graph also declares a sealed source
// after the spec's streams and one more that it removes again, so the stream
// list was edited after the build; and one component carries a lineage.
func cloneCases(t *testing.T) map[string]func() *dataflow.Graph {
	t.Helper()
	cases := map[string]func() *dataflow.Graph{}
	for _, n := range []int{20, 200, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			res, err := topogen.Generate(topogen.Default(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := spec.Parse(res.Spec)
			if err != nil {
				t.Fatal(err)
			}
			cases[fmt.Sprintf("topogen-%d-s%d", n, seed)] = buildWithExtras(cfg, nil)
		}
	}
	for file, variants := range map[string]map[string]string{
		"wordcount.blazes": nil,
		"adreport.blazes":  {"Report": "CAMPAIGN"},
	} {
		src, err := os.ReadFile(filepath.Join("..", "spec", "testdata", file))
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := spec.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		cases[file] = buildWithExtras(cfg, variants)
	}
	for name, build := range cases {
		if err := build().Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return cases
}

func buildWithExtras(cfg *spec.Config, variants map[string]string) func() *dataflow.Graph {
	return func() *dataflow.Graph {
		g, err := cfg.Graph("clone", spec.BuildOptions{Variants: variants})
		if err != nil {
			panic(err)
		}
		var src *dataflow.Stream
		for _, s := range g.Streams() {
			if s.IsSource() {
				src = s
				break
			}
		}
		g.Source("extra", src.ToComp, src.ToIface).Seal = fd.NewAttrSet("extra")
		g.Source("removed", src.ToComp, src.ToIface)
		g.RemoveStream("removed")
		g.Components()[0].Deps = fd.NewSet(fd.Identity("key"))
		return g
	}
}

// sameGraph reports the first field in which b differs from a: a component
// with its interfaces, paths, schema map and lineage, the name order of
// Components, Lookup, a stream field, the stream order, and which stream
// Stream resolves every name to.
func sameGraph(a, b *dataflow.Graph) error {
	if a.Name != b.Name {
		return fmt.Errorf("name %q, want %q", b.Name, a.Name)
	}
	ac, bc := a.Components(), b.Components()
	if len(ac) != len(bc) {
		return fmt.Errorf("%d components, want %d", len(bc), len(ac))
	}
	for i, x := range ac {
		y := bc[i]
		switch {
		case x.Name != y.Name:
			return fmt.Errorf("Components()[%d] is %q, want %q", i, y.Name, x.Name)
		case b.Lookup(x.Name) != y:
			return fmt.Errorf("Lookup(%q) is not Components()[%d]", x.Name, i)
		case x.Rep != y.Rep || x.Coordination != y.Coordination:
			return fmt.Errorf("component %q: rep %v coordination %v, want %v %v", x.Name, y.Rep, y.Coordination, x.Rep, x.Coordination)
		case !reflect.DeepEqual(x.Paths, y.Paths):
			return fmt.Errorf("component %q: paths %v, want %v", x.Name, y.Paths, x.Paths)
		case !slices.Equal(x.Inputs(), y.Inputs()) || !slices.Equal(x.Outputs(), y.Outputs()):
			return fmt.Errorf("component %q: interfaces %v→%v, want %v→%v", x.Name, y.Inputs(), y.Outputs(), x.Inputs(), x.Outputs())
		case (x.OutSchema == nil) != (y.OutSchema == nil) || !maps.EqualFunc(x.OutSchema, y.OutSchema, fd.AttrSet.Equal):
			return fmt.Errorf("component %q: schema %v, want %v", x.Name, y.OutSchema, x.OutSchema)
		case !reflect.DeepEqual(x.Deps, y.Deps):
			return fmt.Errorf("component %q: lineage %v, want %v", x.Name, y.Deps, x.Deps)
		}
	}
	as, bs := a.Streams(), b.Streams()
	if len(as) != len(bs) {
		return fmt.Errorf("%d streams, want %d", len(bs), len(as))
	}
	for i, x := range as {
		if !reflect.DeepEqual(*x, *bs[i]) {
			return fmt.Errorf("Streams()[%d] = %+v, want %+v", i, *bs[i], *x)
		}
		if ai, bi := slices.Index(as, a.Stream(x.Name)), slices.Index(bs, b.Stream(x.Name)); ai != bi {
			return fmt.Errorf("Stream(%q) is stream %d, want %d", x.Name, bi, ai)
		}
	}
	return nil
}

// mutate applies one of each edit a graph offers: AddPath on every other
// component, SetPathAnn, Connect, RemoveStream and a seal write.
func mutate(g *dataflow.Graph) {
	comps := g.Components()
	for i := 0; i < len(comps); i += 2 {
		comps[i].AddPath("mutated-in", "mutated-out", core.CR)
	}
	last := comps[len(comps)-1]
	p := last.Paths[0]
	last.SetPathAnn(p.From, p.To, core.Annotation{Write: true, GateStar: true})
	last.Coordination = dataflow.CoordSealed
	g.Connect("mutated", "", "", last.Name, p.From)
	g.RemoveStream(g.Streams()[0].Name)
	g.Streams()[len(g.Streams())-2].Seal = fd.NewAttrSet("mutated")
}

// TestCloneIsFieldForFieldAndIndependent: a clone equals its source in every
// field and order, shares no component or stream with it, and the two
// stay independent under every edit in both directions — in particular an
// AddPath on one cloned component, whose paths and interface lists sit in
// arrays shared with its neighbours, never touches a neighbour's.
func TestCloneIsFieldForFieldAndIndependent(t *testing.T) {
	for name, build := range cloneCases(t) {
		t.Run(name, func(t *testing.T) {
			g := build()
			c := g.Clone()
			if err := sameGraph(g, c); err != nil {
				t.Fatalf("clone differs: %v", err)
			}
			for i, comp := range g.Components() {
				if cc := c.Components()[i]; cc == comp || cc.Deps != comp.Deps {
					t.Fatalf("component %q: shared with the source, or its lineage is not", comp.Name)
				}
			}
			for i, s := range g.Streams() {
				if c.Streams()[i] == s {
					t.Fatalf("stream %q is shared with the source", s.Name)
				}
			}

			// Edits to the clone do not reach the source, and leave the
			// clone's untouched components as they were.
			mutate(c)
			if err := sameGraph(build(), g); err != nil {
				t.Fatalf("editing the clone changed the source: %v", err)
			}
			want := build()
			mutate(want)
			if err := sameGraph(want, c); err != nil {
				t.Fatalf("the edited clone differs from an edited fresh build: %v", err)
			}

			// Edits to the source do not reach a clone.
			g = build()
			c = g.Clone()
			mutate(g)
			if err := sameGraph(build(), c); err != nil {
				t.Fatalf("editing the source changed the clone: %v", err)
			}
			// Nor to a clone of a clone.
			cc := c.Clone()
			mutate(c)
			if err := sameGraph(build(), cc); err != nil {
				t.Fatalf("editing a clone changed its clone: %v", err)
			}
		})
	}
}

// TestCloneAllocs: a clone of a 1k-component generated graph costs a fixed
// handful of arrays and the map tables, not objects per component and per
// stream: the clone that allocated each entry on its own took 6,925 objects
// here, one per component and per stream, one per path and interface list,
// and the sort of the clone's names.
func TestCloneAllocs(t *testing.T) {
	g := generated(t, 1000, 8)
	allocs := testing.AllocsPerRun(5, func() { g.Clone().Components() })
	if allocs > 6925/2 {
		t.Errorf("Clone of %d components allocates %.0f objects, want at most %d", len(g.Components()), allocs, 6925/2)
	}
	t.Logf("Clone of %d components and %d streams: %.0f allocations", len(g.Components()), len(g.Streams()), allocs)
}

// TestValidateAllocs: validating a well-formed 1k-component generated graph
// allocates nothing — the check that no stream name is declared twice
// compares two lengths and builds its set of names only on a graph whose
// lengths differ.
func TestValidateAllocs(t *testing.T) {
	g := generated(t, 1000, 8)
	g.Components()
	if allocs := testing.AllocsPerRun(5, func() {
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}); allocs > 0 {
		t.Errorf("Validate of %d components allocates %.0f objects, want none", len(g.Components()), allocs)
	}
}

// BenchmarkGraphClone clones the 10k-component reference topology the
// session-edits benchmark opens its session on:
// go test -run '^$' -bench GraphClone -benchmem ./internal/dataflow
func BenchmarkGraphClone(b *testing.B) {
	res, err := topogen.Generate(topogen.Default(10000, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := res.Graph()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		g.Clone()
	}
}
