package spec

import (
	_ "embed"

	"blazes/internal/dataflow"
	"blazes/internal/fd"
)

// Wordcount is the Blazes spec of the Storm streaming wordcount (Sections
// I-B and VI-A1): Splitter (CR) → Count (OW_{word,batch}) → Commit (CW). It
// is the one statement of that dataflow; every wordcount graph is built
// from it.
//
//go:embed testdata/wordcount.blazes
var Wordcount string

// WordcountGraph builds Wordcount as the graph "storm-wordcount". When
// sealBatch is set, the tweet source carries Seal_batch — the paper's
// "nontransactional" configuration whose outputs Blazes proves
// deterministic.
func WordcountGraph(sealBatch bool) *dataflow.Graph {
	cfg, err := Parse(Wordcount)
	var g *dataflow.Graph
	if err == nil {
		g, err = cfg.Graph("storm-wordcount", BuildOptions{})
	}
	if err != nil {
		panic("spec: the embedded wordcount spec: " + err.Error()) // a fixed file the tests build
	}
	if sealBatch {
		g.Stream("tweets").Seal = fd.NewAttrSet("batch")
	}
	return g
}
