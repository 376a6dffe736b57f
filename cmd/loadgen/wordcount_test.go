package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/spec"
)

// TestWordcountStatementsAgree: the wordcount dataflow is written down three
// times — dataflow.WordcountTopology, the fixture spec the tests and
// examples load, and the spec loadgen inlines — and all three reach the
// same verdict, stream labels and strategies, with the tweet source
// unsealed and sealed on batch.
func TestWordcountStatementsAgree(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("..", "..", "internal", "spec", "testdata", "wordcount.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	fromSpec := func(src string) func(bool) *dataflow.Graph {
		return func(sealBatch bool) *dataflow.Graph {
			cfg, err := spec.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			g, err := cfg.Graph("wordcount", spec.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if sealBatch {
				g.Stream("tweets").Seal = fd.NewAttrSet("batch")
			}
			return g
		}
	}
	statements := []struct {
		name  string
		graph func(sealBatch bool) *dataflow.Graph
	}{
		{"dataflow.WordcountTopology", dataflow.WordcountTopology},
		{"wordcount.blazes", fromSpec(string(fixture))},
		{"loadgen's wordcountSpec", fromSpec(wordcountSpec)},
	}
	outcome := func(g *dataflow.Graph) []string {
		a, err := dataflow.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		out := []string{"verdict " + a.Verdict.String()}
		for s, l := range a.Streams() {
			out = append(out, "stream "+s.Name+" "+l.String())
		}
		for _, st := range dataflow.Synthesize(a, dataflow.SynthesisOptions{}) {
			out = append(out, fmt.Sprintf("strategy %s %s %v %v", st.Component, st.Mechanism, st.SealKeys, st.Inputs))
		}
		return out
	}
	for _, sealBatch := range []bool{false, true} {
		want := outcome(statements[0].graph(sealBatch))
		for _, s := range statements[1:] {
			if got := outcome(s.graph(sealBatch)); !slices.Equal(got, want) {
				t.Errorf("sealBatch %v: %s and %s disagree\n got: %s\nwant: %s", sealBatch, s.name, statements[0].name,
					strings.Join(got, "; "), strings.Join(want, "; "))
			}
		}
	}
}
