package blazes

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blazes/topogen"
)

// TestDeclarationOrderInvariance is ROADMAP item 4(c): the order in which a
// spec declares its components and its sources, streams and sinks is not
// part of the dataflow, so it must not change the analysis. Each generated
// spec (20, 200 and 1,000 components, seeds 1–4) and each spec under
// internal/spec/testdata is re-declared in three seeded shuffles, and the
// shuffled spec's Synthesize report must equal the original's.
//
// Equal after one normalization: a component's steps and an output's
// reconciliation inputs follow stream declaration order, so the raw report
// bytes do move (the test logs how often). Both lists are sorted before the
// comparison. An engine that re-ranks incrementally (ROADMAP 9(a)) must keep
// declaration order in those two lists or canonicalize them, and
// canonicalizing re-records the report goldens.
func TestDeclarationOrderInvariance(t *testing.T) {
	type source struct {
		name, text string
		variant    Option // nil, or the variant a fixture needs built
	}
	var sources []source
	for _, n := range []int{20, 200, 1000} {
		for seed := int64(1); seed <= 4; seed++ {
			res, err := topogen.Generate(topogen.Default(n, seed))
			if err != nil {
				t.Fatal(err)
			}
			sources = append(sources, source{name: fmt.Sprintf("gen-%d-s%d", n, seed), text: res.Spec})
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
		text, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		before := len(sources)
		for _, comp := range spec.Components() {
			variants, _ := spec.Variants(comp)
			for _, v := range variants {
				sources = append(sources, source{filepath.Base(f) + " " + comp + "=" + v, string(text), WithVariant(comp, v)})
			}
		}
		if len(sources) == before {
			sources = append(sources, source{name: filepath.Base(f), text: string(text)})
		}
	}

	shuffles, rawDiffers := 0, 0
	for _, src := range sources {
		var opts []Option
		if src.variant != nil {
			opts = append(opts, src.variant)
		}
		want, wantRaw := synthesizeNormalized(t, src.name, src.text, opts...)
		// Three shuffles that move something: a small fixture has few
		// orders, and a seed may draw the one it has.
		for k, moved := int64(1), 0; moved < 3; k++ {
			if k > 100 {
				t.Fatalf("%s: 100 shuffles left the declarations in place", src.name)
			}
			shuffled := shuffleDeclarations(src.text, rand.New(rand.NewSource(k)))
			if shuffled == src.text {
				continue
			}
			moved++
			got, gotRaw := synthesizeNormalized(t, src.name, shuffled, opts...)
			shuffles++
			if !bytes.Equal(gotRaw, wantRaw) {
				rawDiffers++
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: shuffle %d changed the normalized Synthesize report:\n%s", src.name, k, firstDiff(got, want))
			}
		}
	}
	t.Logf("raw report JSON differs in %d of %d shuffles; normalized, in none", rawDiffers, shuffles)
}

// synthesizeNormalized parses and synthesizes a spec, and returns its report
// JSON with each component's steps and each output's inputs sorted, and as
// it came.
func synthesizeNormalized(t *testing.T, name, text string, opts ...Option) (normalized, raw []byte) {
	t.Helper()
	spec, err := ParseSpec(text)
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, text)
	}
	g, err := spec.Graph(name, opts...)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res, err := NewAnalyzer().Synthesize(g)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rep := res.Report()
	if raw, err = rep.MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Components {
		sortByJSON(t, c.Steps)
		for i := range c.Outputs {
			sortByJSON(t, c.Outputs[i].Inputs)
		}
	}
	if normalized, err = rep.MarshalIndent(); err != nil {
		t.Fatal(err)
	}
	return normalized, raw
}

// sortByJSON sorts list by each element's JSON encoding.
func sortByJSON[T any](t *testing.T, list []T) {
	type keyed struct {
		key string
		v   T
	}
	ks := make([]keyed, len(list))
	for i, v := range list {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		ks[i] = keyed{string(b), v}
	}
	slices.SortFunc(ks, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	for i := range ks {
		list[i] = ks[i].v
	}
}

// shuffleDeclarations re-declares a spec: the component blocks in a random
// order, then the topology block with the entries of each of its lists
// (sources, streams, sinks) in a random order. Comment lines before the
// first block stay first. It reads the layout topogen writes and the
// fixtures use: a block starts at column 0, a list at two spaces and an
// entry at "    - ", and deeper lines continue the entry above them.
func shuffleDeclarations(text string, rng *rand.Rand) string {
	var header string
	var comps []string
	var topology []string // the "topology:" line, then one chunk per list
	var lists [][]string  // per list: its entries
	inTopology := false
	for line := range strings.Lines(text) {
		trimmed := strings.TrimSpace(line)
		switch {
		case len(comps) == 0 && !inTopology && (trimmed == "" || strings.HasPrefix(trimmed, "#")):
			header += line
		case line[0] != ' ' && line[0] != '\n' && line[0] != '#':
			inTopology = strings.HasPrefix(line, "topology:")
			if inTopology {
				topology = append(topology, line)
			} else {
				comps = append(comps, line)
			}
		case !inTopology:
			comps[len(comps)-1] += line
		case strings.HasPrefix(line, "    - "):
			l := lists[len(lists)-1]
			lists[len(lists)-1] = append(l, line)
		case strings.HasPrefix(line, "  ") && !strings.HasPrefix(line, "   "):
			topology = append(topology, line)
			lists = append(lists, nil)
		default: // a continuation of the last entry, or a blank line
			l := lists[len(lists)-1]
			l[len(l)-1] += line
		}
	}
	rng.Shuffle(len(comps), func(i, j int) { comps[i], comps[j] = comps[j], comps[i] })
	var b strings.Builder
	b.WriteString(header)
	for _, c := range comps {
		b.WriteString(c)
	}
	if len(topology) > 0 {
		b.WriteString(topology[0])
		for k, l := range lists {
			rng.Shuffle(len(l), func(i, j int) { l[i], l[j] = l[j], l[i] })
			b.WriteString(topology[k+1])
			for _, e := range l {
				b.WriteString(e)
			}
		}
	}
	return b.String()
}

// firstDiff renders the first line where two JSON documents part.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d: got %s, want %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}
