package dataflow

import (
	"blazes/internal/core"
	"blazes/internal/fd"
)

// wordcountTopology builds the Storm streaming wordcount of Section I-B /
// VI-A by hand: Splitter (CR) → Count (OW_{word,batch}) → Commit (CW), the
// tweet source sealed on batch when sealBatch is set. The product builds
// it from spec.Wordcount, which imports this package, so in-package tests
// keep this copy; TestWordcountBuilderMatchesSpec holds it to the spec.
func wordcountTopology(sealBatch bool) *Graph {
	g := NewGraph("storm-wordcount")
	g.Component("Splitter").AddPath("tweets", "words", core.CR)
	g.Component("Count").AddPath("words", "counts", core.OWGate("word", "batch"))
	g.Component("Commit").AddPath("counts", "db", core.CW)

	src := g.Source("tweets", "Splitter", "tweets")
	if sealBatch {
		src.Seal = fd.NewAttrSet("batch")
	}
	g.Connect("words", "Splitter", "words", "Count", "words")
	g.Connect("counts", "Count", "counts", "Commit", "counts")
	g.Sink("db", "Commit", "db")
	return g
}
