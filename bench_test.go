package blazes

// Speed is measured by `go run ./benchmark` (BENCHMARK.json): every layer a
// workload runs has a per_layer metric there. The three benchmarks here
// time what no such metric isolates — the annotation calculus on its own,
// the paper's five small case-study graphs, the Bloom white-box extractor —
// and exist for measuring while working on those
// (`go test -bench . -run '^$' .`), not as a record.

import (
	"testing"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/core"
	"blazes/internal/dataflow"
)

// BenchmarkFig7to10Calculus exercises the annotation calculus tables
// (Figures 7–10): inference and reconciliation over every rule combination.
// It stays because no per_layer metric times internal/core alone:
// dataflow.analyze_ms reads it together with the graph walk that calls it.
func BenchmarkFig7to10Calculus(b *testing.B) {
	anns := []core.Annotation{core.CR, core.CW, core.ORGate("id", "campaign"), core.OWGate("word", "batch"), core.ORStar(), core.OWStar()}
	labels := []core.Label{core.Async, core.Run, core.Inst, core.Diverge, core.Seal("campaign"), core.Seal("batch")}
	for i := 0; i < b.N; i++ {
		for _, ann := range anns {
			var outs []core.Label
			for _, l := range labels {
				outs = append(outs, core.Infer(l, ann, nil).Out)
			}
			core.Reconcile(outs, true, nil)
		}
	}
}

// BenchmarkCaseStudyDerivations runs the full Section VI analyses (both
// running examples, grey box) per iteration. It stays because
// dataflow.analyze_ms is read on generated 10k-component graphs, where the
// fixed cost of compiling a graph vanishes; on the paper's own graphs, a
// handful of components each, that fixed cost is most of the analysis.
func BenchmarkCaseStudyDerivations(b *testing.B) {
	graphs := []*dataflow.Graph{
		WordcountTopology(false),
		WordcountTopology(true),
		adSpecGraph(b, THRESH),
		adSpecGraph(b, POOR),
		adSpecGraph(b, CAMPAIGN, "campaign"),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := dataflow.Analyze(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWhiteBoxExtraction measures the Bloom white-box analysis of the
// ad system's modules (Section VII). It stays because no per_layer metric
// times bloom.Analyze: the bloom.* metrics time the runtime (NewNode,
// Deliver, Tick), and the sweep extracts annotations only once per Bloom
// workload, while it builds that workload's graph.
func BenchmarkWhiteBoxExtraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.WINDOW, dataflow.CAMPAIGN} {
			mod, err := adtrack.ReportModule(q, 100)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := bloom.Analyze(mod); err != nil {
				b.Fatal(err)
			}
		}
	}
}
