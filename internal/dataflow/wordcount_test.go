package dataflow_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/spec"
)

// TestWordcountBuilderMatchesSpec: the in-package tests' hand-built
// wordcount and spec.Wordcount, the product's only statement of it, are one
// graph — same name, verdict, stream labels and strategies, with the tweet
// source unsealed and sealed on batch.
func TestWordcountBuilderMatchesSpec(t *testing.T) {
	outcome := func(g *dataflow.Graph) []string {
		a, err := dataflow.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		out := []string{"graph " + g.Name, "verdict " + a.Verdict.String()}
		for s, l := range a.Streams() {
			out = append(out, "stream "+s.Name+" "+l.String())
		}
		for _, st := range dataflow.Synthesize(a, dataflow.SynthesisOptions{}) {
			out = append(out, fmt.Sprintf("strategy %s %s %v %v", st.Component, st.Mechanism, st.SealKeys, st.Inputs))
		}
		return out
	}
	for _, sealBatch := range []bool{false, true} {
		got, want := outcome(dataflow.WordcountByHand(sealBatch)), outcome(spec.WordcountGraph(sealBatch))
		if !slices.Equal(got, want) {
			t.Errorf("sealBatch %v: the hand-built wordcount and spec.Wordcount disagree\n hand: %s\n spec: %s", sealBatch,
				strings.Join(got, "; "), strings.Join(want, "; "))
		}
	}
}
