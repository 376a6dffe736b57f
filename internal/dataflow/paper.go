package dataflow

import (
	"blazes/internal/core"
	"blazes/internal/fd"
)

// The paper's streaming wordcount. Its other running example, the ad
// network, is built from its Bloom rules (adtrack.Graph).

// WordcountTopology builds the Storm streaming wordcount dataflow of
// Section I-B / VI-A: Splitter (CR) → Count (OW_{word,batch}) → Commit (CW).
// When sealBatch is set, the tweet source carries Seal_batch — the paper's
// "nontransactional" configuration whose outputs Blazes proves
// deterministic.
func WordcountTopology(sealBatch bool) *Graph {
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

// AdQuery selects the reporting server's continuous query (Figure 6).
// adtrack.ReportModule writes it as Bloom rules; bloom.Analyze derives the
// annotation of Report's request→response path from them.
type AdQuery string

// The four reporting-server queries of Figure 6.
const (
	THRESH   AdQuery = "THRESH"
	POOR     AdQuery = "POOR"
	WINDOW   AdQuery = "WINDOW"
	CAMPAIGN AdQuery = "CAMPAIGN"
)
