package spec_test

import (
	"os"
	"path/filepath"
	"testing"

	"blazes/internal/race"
	"blazes/internal/spec"
	"blazes/internal/topogen"
)

// generated is the spec text of topogen.Default(n, seed).
func generated(tb testing.TB, n int, seed int64) string {
	tb.Helper()
	res, err := topogen.Generate(topogen.Default(n, seed))
	if err != nil {
		tb.Fatal(err)
	}
	return res.Spec
}

// FuzzParseSpec runs spec.CheckParse — Parse against the reference parser,
// and the render → re-parse round trip — on the corpus under
// testdata/fuzz/FuzzParseSpec, the real configuration files shipped in
// testdata/, hand-written inputs where the two parsers could part ways, and
// generated 1k-component specs.
func FuzzParseSpec(f *testing.F) {
	for _, name := range []string{"wordcount.blazes", "adreport.blazes"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("a: 1\nb:\n  - x\n  - {k: v, l: [1, 2]}\n")
	f.Add("key: 'quoted # not comment'\nother: \"true\"\n")
	f.Add("nested:\n  deep:\n    deeper: [a,\n      b]\n")
	for _, src := range spec.DifferentialSeeds {
		f.Add(src)
	}
	for seed := int64(1); seed <= 3; seed++ {
		f.Add(generated(f, 1000, seed))
	}
	f.Fuzz(func(t *testing.T, src string) { spec.CheckParse(t, src) })
}

// TestParseAllocs pins Parse at three allocations per component of a
// generated 1k-component spec (a component and its two streams: the
// annotation list, a subscript or seal list now and then, a schema map and
// its attribute list for three in ten, plus the growth of the Components,
// Streams and index as a whole). The tree parser allocated 65 per component:
// a boxed scalar, a map or a slice for every node of the document.
func TestParseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	gen, err := topogen.Generate(topogen.Default(1000, 1))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := spec.Parse(gen.Spec); err != nil {
			t.Fatal(err)
		}
	})
	if per := allocs / float64(gen.Stats.Components); per > 3 {
		t.Errorf("%.0f allocations for %d components = %.1f per component, want at most 3", allocs, gen.Stats.Components, per)
	} else {
		t.Logf("%.1f allocations per component", per)
	}
}
