package blazes

// One benchmark per table/figure of the paper, plus microbenchmarks for the
// analysis itself. Figure benches run reduced-scale simulations (the full
// paper-scale runs live in cmd/experiments); custom metrics report the
// figure's headline quantity so `go test -bench` output doubles as a
// regeneration of the paper's data shapes.

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/experiments"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
	"blazes/topogen"
)

// reportFlipAnns are the two Report-component annotations the session
// benchmarks alternate between: the paper's CAMPAIGN and THRESH queries.
var reportFlipAnns = [2]Annotation{ORGate("id", "campaign"), CR}

// BenchmarkSessionReanalyze measures the incremental repair loop: one
// session over the adtrack graph, flipping the Report component's
// annotation every iteration and re-analyzing. Only the flipped component
// and its downstream closure are re-derived; everything else — validation,
// cycle collapse, topological order, unaffected derivations — comes from
// the session's caches. Compare against BenchmarkFullReanalyze, which pays
// a fresh whole-graph analysis for the same flip.
func BenchmarkSessionReanalyze(b *testing.B) {
	s, err := OpenSession(AdNetwork(CAMPAIGN, "campaign"))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := s.Analyze(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Annotate("Report", "request", "response", reportFlipAnns[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Analyze(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullReanalyze is the one-shot baseline for
// BenchmarkSessionReanalyze: the identical annotation flip on the adtrack
// graph, re-analyzed from scratch through the Analyzer every iteration.
func BenchmarkFullReanalyze(b *testing.B) {
	g := dataflow.AdNetwork(dataflow.CAMPAIGN, "campaign")
	analyzer := NewAnalyzer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Lookup("Report").SetPathAnn("request", "response", reportFlipAnns[i%2])
		res, err := analyzer.Analyze(g)
		if err != nil {
			b.Fatal(err)
		}
		if res.Report() == nil {
			b.Fatal("no report")
		}
	}
}

// BenchmarkSynthesize measures strategy synthesis through the registry
// dispatch (defaultChain + per-component Plan calls). The registry
// replaced a hard-coded switch; this pins that the indirection is within
// noise of the analysis it rides on — synthesis is a rounding error next
// to Analyze.
func BenchmarkSynthesize(b *testing.B) {
	g := dataflow.AdNetwork(dataflow.CAMPAIGN, "campaign")
	an, err := dataflow.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sts := dataflow.Synthesize(an, dataflow.SynthesisOptions{}); len(sts) == 0 {
			b.Fatal("no strategies")
		}
	}
}

// BenchmarkSynthesizePreferred is BenchmarkSynthesize with a preferred
// strategy prepended to the chain — the worst-case dispatch (registry
// lookup plus one extra declined Plan call per component).
func BenchmarkSynthesizePreferred(b *testing.B) {
	g := dataflow.AdNetwork(dataflow.CAMPAIGN, "campaign")
	an, err := dataflow.Analyze(g)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sts := dataflow.Synthesize(an, dataflow.SynthesisOptions{Prefer: []string{dataflow.StrategyQuorumOrdering}}); len(sts) == 0 {
			b.Fatal("no strategies")
		}
	}
}

// BenchmarkFig5AnomalyMatrix regenerates the Figure 5 anomaly/remediation
// matrix (3 properties × 4 mechanisms, multi-seed).
func BenchmarkFig5AnomalyMatrix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := experiments.Fig5Matrix(4)
		if len(m) != 12 {
			b.Fatalf("cells = %d", len(m))
		}
	}
}

// BenchmarkFig6Queries evaluates the four reporting queries of Figure 6
// against a synthetic click log on the Bloom runtime.
func BenchmarkFig6Queries(b *testing.B) {
	queries := []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.WINDOW, dataflow.CAMPAIGN}
	w := adtrack.DefaultWorkload(3, false)
	w.EntriesPerServer = 200
	var clicks []bloom.Row
	for _, burst := range w.Plan() {
		for _, c := range burst.Clicks {
			clicks = append(clicks, c.Row())
		}
	}
	request := adtrack.Request{ID: adtrack.AdName(0, 0), Campaign: adtrack.CampaignName(0), Window: "w0", ReqID: "r"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			mod, err := adtrack.ReportModule(q, 100)
			if err != nil {
				b.Fatal(err)
			}
			n, err := bloom.NewNode("bench", mod)
			if err != nil {
				b.Fatal(err)
			}
			if err := n.Deliver("click", clicks...); err != nil {
				b.Fatal(err)
			}
			if _, err := n.Tick(); err != nil {
				b.Fatal(err)
			}
			if err := n.Deliver("request", request.Row()); err != nil {
				b.Fatal(err)
			}
			if _, err := n.Tick(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig7to10Calculus exercises the annotation calculus tables
// (Figures 7–10): inference and reconciliation over every rule combination.
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
// running examples, grey box) per iteration.
func BenchmarkCaseStudyDerivations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, g := range []*dataflow.Graph{
			dataflow.WordcountTopology(false),
			dataflow.WordcountTopology(true),
			dataflow.AdNetwork(dataflow.THRESH),
			dataflow.AdNetwork(dataflow.POOR),
			dataflow.AdNetwork(dataflow.CAMPAIGN, "campaign"),
		} {
			if _, err := dataflow.Analyze(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkWhiteBoxExtraction measures the Bloom white-box analysis of the
// ad system's modules (Section VII).
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

// BenchmarkFig11WordcountThroughput regenerates a reduced Figure 11 sweep
// and reports the sealed/transactional throughput ratio at both ends of the
// cluster-size axis. The sweep's four independent simulations run on one
// worker per CPU (results are identical at any parallelism); setting
// BLAZES_BENCH_QUICK=1 shrinks the sweep further for a quick local run
// (those numbers are a smoke signal, not comparable to the baseline).
func BenchmarkFig11WordcountThroughput(b *testing.B) {
	cfg := experiments.DefaultFig11()
	cfg.ClusterSizes = []int{5, 20}
	cfg.Duration = 300 * sim.Millisecond
	cfg.Runs = 1
	cfg.Parallelism = -1 // one worker per CPU
	if os.Getenv("BLAZES_BENCH_QUICK") != "" {
		cfg.ClusterSizes = []int{5, 10}
		cfg.Duration = 100 * sim.Millisecond
	}
	var first, last float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig11(cfg)
		if err != nil {
			b.Fatal(err)
		}
		first, last = rows[0].Ratio, rows[len(rows)-1].Ratio
	}
	b.ReportMetric(first, "ratio@5workers")
	b.ReportMetric(last, "ratio@20workers")
}

// benchAdFigure runs one reduced ad-network figure and reports the ordered
// and sealed slowdown factors over the uncoordinated baseline.
func benchAdFigure(b *testing.B, servers int, includeOrdered bool) {
	var orderedFactor, sealFactor float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig12Or13(experiments.AdFigureConfig{
			Seed: 1, AdServers: servers, EntriesPerServer: 100,
			Sleep: 50 * sim.Millisecond, BatchSize: 10, IncludeOrdered: includeOrdered,
			Parallelism: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		byLabel := map[string]experiments.AdSeries{}
		for _, c := range fig.Curves {
			byLabel[c.Label] = c
		}
		un := byLabel["Uncoordinated"].FinishedAt
		if includeOrdered && un > 0 {
			orderedFactor = float64(byLabel["Ordered"].FinishedAt) / float64(un)
		}
		if un > 0 {
			sealFactor = float64(byLabel["Seal"].FinishedAt) / float64(un)
		}
	}
	if includeOrdered {
		b.ReportMetric(orderedFactor, "ordered/uncoord")
	}
	b.ReportMetric(sealFactor, "seal/uncoord")
}

// BenchmarkFig12AdReport5 regenerates Figure 12 (5 ad servers).
func BenchmarkFig12AdReport5(b *testing.B) { benchAdFigure(b, 5, true) }

// BenchmarkFig13AdReport10 regenerates Figure 13 (10 ad servers).
func BenchmarkFig13AdReport10(b *testing.B) { benchAdFigure(b, 10, true) }

// BenchmarkFig14SealStrategies regenerates Figure 14 (seal variants only)
// and reports the buffering-latency gap between the two partitionings.
func BenchmarkFig14SealStrategies(b *testing.B) {
	var indBuf, sealBuf float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Fig14WithSleep(1, 100, 50*sim.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range fig.Curves {
			switch c.Label {
			case "Independent Seal":
				indBuf = c.AvgBufferTime.Seconds()
			case "Seal":
				sealBuf = c.AvgBufferTime.Seconds()
			}
		}
	}
	b.ReportMetric(indBuf, "indep-buffer-sec")
	b.ReportMetric(sealBuf, "vote-buffer-sec")
}

// BenchmarkStormSealedWordcount measures raw engine throughput (events/sec
// of the simulator) for the sealed wordcount.
func BenchmarkStormSealedWordcount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := wc.Run(wc.RunConfig{
			Seed: int64(i + 1), Workers: 4, Batches: 10, TuplesPerBatch: 50,
			WordsPerTweet: 4, Mode: storm.CommitSealed, Punctuate: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Done {
			b.Fatal("incomplete")
		}
	}
}

// BenchmarkBloomTick measures the Bloom runtime's timestep cost on the
// CAMPAIGN standing query over a 1k-row log.
func BenchmarkBloomTick(b *testing.B) {
	mod, err := adtrack.ReportModule(dataflow.CAMPAIGN, 100)
	if err != nil {
		b.Fatal(err)
	}
	n, err := bloom.NewNode("bench", mod)
	if err != nil {
		b.Fatal(err)
	}
	w := adtrack.DefaultWorkload(2, false)
	w.EntriesPerServer = 500
	for _, burst := range w.Plan() {
		for _, c := range burst.Clicks {
			if err := n.Deliver("click", c.Row()); err != nil {
				b.Fatal(err)
			}
		}
	}
	if _, err := n.Tick(); err != nil {
		b.Fatal(err)
	}
	req := adtrack.Request{ID: adtrack.AdName(0, 0), Campaign: adtrack.CampaignName(0), Window: "w0", ReqID: "r"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := n.Deliver("request", req.Row()); err != nil {
			b.Fatal(err)
		}
		if _, err := n.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleBenchGraph builds the scale-bench topology through the public
// pipeline (generate → parse → graph): 10k components by default, 1k under
// BLAZES_BENCH_QUICK=1 for a quick local run (those numbers are a smoke
// signal, not comparable to the baseline).
func scaleBenchGraph(b *testing.B) *Graph {
	b.Helper()
	n := 10_000
	if os.Getenv("BLAZES_BENCH_QUICK") != "" {
		n = 1000
	}
	res, err := topogen.Generate(topogen.Default(n, 8))
	if err != nil {
		b.Fatal(err)
	}
	spec, err := ParseSpec(res.Spec)
	if err != nil {
		b.Fatal(err)
	}
	g, err := spec.Graph(fmt.Sprintf("bench-scale-%d", n))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAnalyze10k measures one-shot whole-graph analysis of a generated
// 10k-component topology (layered DAG, cyclic supernodes, default
// annotation mix) — the headline number for DESIGN.md's Scale section.
func BenchmarkAnalyze10k(b *testing.B) {
	g := scaleBenchGraph(b)
	analyzer := NewAnalyzer()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzer.Analyze(g); err != nil {
			b.Fatal(err)
		}
	}
}

// scaleFlipTarget picks the flip component for the incremental benchmark:
// the last (highest-named) component touching no cycle stream, so the flip
// never lands inside a supernode and the structural caches survive every
// iteration.
func scaleFlipTarget(b *testing.B, g *Graph) string {
	b.Helper()
	cyclic := map[string]bool{}
	for _, st := range g.Streams() {
		if strings.HasPrefix(st.Name, "cf") || strings.HasPrefix(st.Name, "cb") || strings.HasPrefix(st.Name, "gossip") {
			cyclic[st.FromComp] = true
			cyclic[st.ToComp] = true
		}
	}
	var target string
	for _, c := range g.Components() {
		if !cyclic[c.Name] && c.Name > target {
			target = c.Name
		}
	}
	if target == "" {
		b.Fatal("no acyclic component to flip")
	}
	return target
}

// BenchmarkSessionReanalyze10k measures the incremental path at scale: a
// session over the same 10k topology, flipping one leaf component's
// annotation per iteration. Every pass must come from the incremental
// engine (Rebuilt=false) — otherwise the benchmark has silently degraded
// to whole-graph work.
func BenchmarkSessionReanalyze10k(b *testing.B) {
	s, err := OpenSession(scaleBenchGraph(b))
	if err != nil {
		b.Fatal(err)
	}
	target := scaleFlipTarget(b, s.Graph())
	ctx := context.Background()
	if _, err := s.Analyze(ctx); err != nil {
		b.Fatal(err)
	}
	flips := [2]Annotation{ORStar(), CW}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Annotate(target, "in", "out", flips[i%2]); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Analyze(ctx); err != nil {
			b.Fatal(err)
		}
		if s.LastStats().Rebuilt {
			b.Fatal("annotation flip rebuilt the structural caches")
		}
	}
}
