package dataflow_test

// The engine on the paper's ad-tracking network (Figures 3/4). The network
// is the white-box one, adtrack.Graph: Report's and Cache's annotations are
// what bloom.Analyze extracts from their Bloom rules. adtrack imports this
// package, so these tests live in the external test package.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blazes/internal/adtrack"
	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/spec"
)

// adNetwork is adtrack.Graph(q, sealKey...), failing t on an error.
func adNetwork(t *testing.T, q dataflow.AdQuery, sealKey ...string) *dataflow.Graph {
	t.Helper()
	g, err := adtrack.Graph(q, sealKey...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// requestAnn is the annotation bloom.Analyze extracts for Report's
// request→response path under query q.
func requestAnn(t *testing.T, q dataflow.AdQuery) core.Annotation {
	t.Helper()
	for _, p := range adNetwork(t, q).Lookup("Report").Paths {
		if p.From == "request" && p.To == "response" {
			return p.Ann
		}
	}
	t.Fatalf("%s: Report has no request→response path", q)
	return core.Annotation{}
}

// TestIncrementalMatchesFreshOnPaperGraphs drives the built-in graphs
// through annotation and seal flips and checks every re-analysis against a
// fresh full analysis of the same graph.
func TestIncrementalMatchesFreshOnPaperGraphs(t *testing.T) {
	graphs := []*dataflow.Graph{
		spec.WordcountGraph(false),
		spec.WordcountGraph(true),
		adNetwork(t, dataflow.THRESH),
		adNetwork(t, dataflow.CAMPAIGN, "campaign"),
	}
	ctx := context.Background()
	for _, g := range graphs {
		inc := dataflow.NewIncremental(g.Clone())
		a, _, err := inc.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		dataflow.FullEqual(t, g.Name, a, inc.Graph())
	}
}

// TestIncrementalAnnotationFlip: flipping one acyclic component's
// annotation re-derives only its downstream closure and still matches a
// fresh analysis.
func TestIncrementalAnnotationFlip(t *testing.T) {
	ctx := context.Background()
	inc := dataflow.NewIncremental(adNetwork(t, dataflow.CAMPAIGN, "campaign"))
	if _, stats, err := inc.Analyze(ctx); err != nil || !stats.Rebuilt {
		t.Fatalf("first analyze: stats=%+v err=%v", stats, err)
	}

	report := inc.Graph().Lookup("Report")
	for i, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.CAMPAIGN, dataflow.WINDOW, dataflow.CAMPAIGN} {
		if !report.SetPathAnn("request", "response", requestAnn(t, q)) {
			t.Fatal("path not found")
		}
		inc.NoteAnnotationChange("Report")
		a, stats, err := inc.Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rebuilt {
			t.Fatalf("flip %d (%s): structural rebuild for an annotation flip", i, q)
		}
		if len(stats.Recomputed) == 0 {
			t.Fatalf("flip %d (%s): nothing recomputed", i, q)
		}
		dataflow.FullEqual(t, string(q), a, inc.Graph())
	}
}

// TestIncrementalCyclicAnnotationFlip: annotation changes on a component
// that lies on an interface-level cycle degrade to a structural rebuild and
// still match.
func TestIncrementalCyclicAnnotationFlip(t *testing.T) {
	ctx := context.Background()
	inc := dataflow.NewIncremental(adNetwork(t, dataflow.THRESH))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	cache := inc.Graph().Lookup("Cache")
	if !cache.SetPathAnn("response_in", "response_out", core.OWStar()) {
		t.Fatal("path not found")
	}
	inc.NoteAnnotationChange("Cache")
	a, stats, err := inc.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rebuilt {
		t.Fatal("cyclic annotation change should rebuild the structure")
	}
	dataflow.FullEqual(t, "cyclic-flip", a, inc.Graph())
}

// TestIncrementalNoChangeReturnsCached: analyzing twice without a mutation
// reuses the whole analysis.
func TestIncrementalNoChangeReturnsCached(t *testing.T) {
	ctx := context.Background()
	inc := dataflow.NewIncremental(adNetwork(t, dataflow.POOR))
	a1, _, err := inc.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	a2, stats, err := inc.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("unchanged session should return the cached analysis")
	}
	if len(stats.Recomputed) != 0 {
		t.Fatalf("recomputed %v on a no-op", stats.Recomputed)
	}
}

// TestIncrementalCancellation: a cancelled context aborts the analysis.
func TestIncrementalCancellation(t *testing.T) {
	inc := dataflow.NewIncremental(adNetwork(t, dataflow.THRESH))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := inc.Analyze(ctx); err == nil {
		t.Fatal("cancelled context should abort")
	}
}

// TestFootnote3NoComponentLevelCycle pins the paper's footnote 3: the Cache
// participates in a cycle via its gossip self-edge, but Cache and Report
// form no cycle because Cache has no internal path from its response input
// to its request output. Cycle detection must therefore be path-granular.
func TestFootnote3NoComponentLevelCycle(t *testing.T) {
	g := adNetwork(t, dataflow.THRESH)
	cg := dataflow.CollapsedOf(t, g)
	if cg == g {
		t.Fatal("the gossip self-edge should force a collapse")
	}
	// Cache and Report must both survive as separate components.
	if cg.Lookup("Cache") == nil || cg.Lookup("Report") == nil {
		t.Fatalf("Cache/Report should not be merged; components = %v", dataflow.ComponentNames(cg))
	}
	// The gossip stream lies on the cycle and must be dropped.
	if cg.Stream("gossip") != nil {
		t.Error("gossip self-edge should be removed by the collapse")
	}
	// The q and r streams between Cache and Report survive.
	if cg.Stream("q") == nil || cg.Stream("r") == nil {
		t.Error("q/r streams must survive the collapse")
	}
}

// probeStrategy declines every component after recording what the
// context's stream index answers for each of its input interfaces.
type probeStrategy struct{ seen map[string][]string }

func (p probeStrategy) Plan(ctx *dataflow.StrategyContext) (dataflow.Strategy, bool) {
	for _, in := range ctx.Component.Inputs() {
		p.seen[ctx.Component.Name+"."+in] = dataflow.StreamNames(ctx.StreamsInto(in))
	}
	return dataflow.Strategy{}, false
}

// TestStrategyContextStreamsInto: the helper planners use in place of
// Graph.StreamsInto answers the same streams in the same order, on plain
// components and on a supernode's member-qualified interfaces.
func TestStrategyContextStreamsInto(t *testing.T) {
	probe := probeStrategy{seen: map[string][]string{}}
	offer := func(a *dataflow.Analysis) {
		clear(probe.seen)
		for ca := range a.Components() {
			dataflow.Plan(ca, []dataflow.StrategyDef{probe})
		}
	}
	// The first random graph whose supernode is offered to the strategy (some
	// draws close a cycle the collapse refuses, or only a self-loop, or one
	// that needs no coordination).
	withSupernode := func() *dataflow.Graph {
		for seed := int64(0); ; seed++ {
			g := dataflow.RandomCyclicGraph(rand.New(rand.NewSource(seed)))
			a, err := dataflow.Analyze(g)
			if err != nil {
				continue
			}
			offer(a)
			for key := range probe.seen {
				if strings.HasPrefix(key, "scc+") {
					return g
				}
			}
		}
	}
	for _, g := range []*dataflow.Graph{adNetwork(t, dataflow.POOR), spec.WordcountGraph(false), withSupernode()} {
		a, err := dataflow.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		offer(a)
		if len(probe.seen) == 0 {
			t.Fatalf("%s: no component was offered to the strategy", g.Name)
		}
		for key, got := range probe.seen {
			comp, iface, _ := strings.Cut(key, ".") // component names here have no dot; a supernode's interfaces do
			want := dataflow.StreamNames(a.Collapsed.StreamsInto(comp, iface))
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: StreamsInto(%s) = %v, Graph.StreamsInto has %v", g.Name, key, got, want)
			}
		}
		if got := (&dataflow.StrategyContext{Analysis: a, Component: a.Collapsed.Components()[0]}).StreamsInto("no-such-interface"); got != nil {
			t.Errorf("unknown interface answers %v", got)
		}
	}
}

// TestSynthesizePOOR: POOR admits no compatible seal; the strategy is
// dynamic ordering at the Report component only (the Cache merely inherits
// the anomaly and must not be separately coordinated).
func TestSynthesizePOOR(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.POOR))
	if err != nil {
		t.Fatal(err)
	}
	sts := dataflow.Synthesize(a, dataflow.SynthesisOptions{})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one (Report)", sts)
	}
	if sts[0].Component != "Report" || sts[0].Mechanism != dataflow.CoordDynamicOrder {
		t.Errorf("strategy = %v, want dynamic ordering at Report", sts[0])
	}
}

// TestSynthesizeCAMPAIGNSealed: the campaign seal is compatible, so the
// synthesized strategy is seal-based coordination at Report.
func TestSynthesizeCAMPAIGNSealed(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.CAMPAIGN, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	sts := dataflow.Synthesize(a, dataflow.SynthesisOptions{})
	if len(sts) != 1 {
		t.Fatalf("strategies = %v, want exactly one", sts)
	}
	st := sts[0]
	if st.Component != "Report" || st.Mechanism != dataflow.CoordSealed {
		t.Errorf("strategy = %v, want sealing at Report", st)
	}
	if key := st.SealKeys["clicks"]; key.String() != "campaign" {
		t.Errorf("seal keys = %v, want clicks on campaign", st.SealKeys)
	}
}

// TestSynthesizeTHRESHNeedsNothing: confluent dataflows need no strategy.
func TestSynthesizeTHRESHNeedsNothing(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.THRESH))
	if err != nil {
		t.Fatal(err)
	}
	if sts := dataflow.Synthesize(a, dataflow.SynthesisOptions{}); len(sts) != 0 {
		t.Errorf("strategies = %v, want none", sts)
	}
}

// TestRepairPOORDynamicOrder: repairing POOR with M2 removes replication
// anomalies but leaves cross-run nondeterminism — the residual verdict is
// Run, matching Figure 5's guarantee for dynamic ordering.
func TestRepairPOORDynamicOrder(t *testing.T) {
	a, sts, err := dataflow.Repair(adNetwork(t, dataflow.POOR), dataflow.SynthesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) == 0 {
		t.Fatal("want at least one strategy")
	}
	if !a.Verdict.Equal(core.Run) {
		t.Errorf("repaired verdict = %s, want Run (M2 leaves cross-run ND)", a.Verdict)
	}
	if a.Verdict.Severity() >= core.Inst.Severity() {
		t.Error("M2 must remove cross-instance anomalies")
	}
}

// TestRepairCAMPAIGNSealed: with compatible seals, repair settles on the
// seal strategy and the dataflow is fully deterministic.
func TestRepairCAMPAIGNSealed(t *testing.T) {
	a, sts, err := dataflow.Repair(adNetwork(t, dataflow.CAMPAIGN, "campaign"), dataflow.SynthesisOptions{})
	if err != nil {
		t.Fatal(err)
	}
	foundSeal := false
	for _, st := range sts {
		if st.Mechanism == dataflow.CoordSealed && st.Component == "Report" {
			foundSeal = true
		}
		if st.Mechanism == dataflow.CoordDynamicOrder || st.Mechanism == dataflow.CoordSequenced {
			t.Errorf("unexpected ordering strategy %v — sealing suffices", st)
		}
	}
	if !foundSeal {
		t.Errorf("strategies = %v, want sealing at Report", sts)
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", a.Verdict)
	}
}

// TestCaseStudyTHRESH reproduces Section VI-B2, first derivation: THRESH is
// confluent, so the whole dataflow is Async without coordination.
func TestCaseStudyTHRESH(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.THRESH))
	if err != nil {
		t.Fatal(err)
	}
	if got := dataflow.OutputLabel(t, a, "Report", "response"); !got.Equal(core.Async) {
		t.Errorf("Report output = %s, want Async", got)
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", a.Verdict)
	}
}

// TestCaseStudyPOOR reproduces Section VI-B2, second derivation: POOR with
// no seal derives Diverge — nondeterministic outputs taint the replicated
// cache and state diverges permanently.
func TestCaseStudyPOOR(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.POOR))
	if err != nil {
		t.Fatal(err)
	}
	// Report: request path OR_id over Async ⇒ NDRead_id, unprotected, Rep
	// ⇒ Inst.
	if got := dataflow.OutputLabel(t, a, "Report", "response"); !got.Equal(core.Inst) {
		t.Errorf("Report output = %s, want Inst", got)
	}
	dataflow.AssertStep(t, a, "Report", core.Step{
		In: core.Async, Ann: core.ORGate("id"), Rule: core.Rule1, Out: core.NDRead("id"),
	})
	// Cache: Inst × CW ⇒(3) Taint, Rep ⇒ Diverge.
	dataflow.AssertStep(t, a, "Cache", core.Step{
		In: core.Inst, Ann: core.CW, Rule: core.Rule3, Out: core.Taint,
	})
	if !a.Verdict.Equal(core.Diverge) {
		t.Errorf("verdict = %s, want Diverge", a.Verdict)
	}
}

// TestCaseStudyCAMPAIGNSealed reproduces Section VI-B2, third derivation:
// with the click stream sealed on campaign, the CAMPAIGN query's gate
// {id,campaign} is compatible; the NDRead is protected and the dataflow is
// Async.
func TestCaseStudyCAMPAIGNSealed(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.CAMPAIGN, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if got := dataflow.OutputLabel(t, a, "Report", "response"); !got.Equal(core.Async) {
		t.Errorf("Report output = %s, want Async", got)
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", a.Verdict)
	}
}

// TestCaseStudyPOORSealed: POOR's gate is {id}, incompatible with a campaign
// seal — the dataflow still derives Diverge (only CAMPAIGN is compatible
// with Seal_campaign; Section V-A1).
func TestCaseStudyPOORSealed(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.POOR, "campaign"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Equal(core.Diverge) {
		t.Errorf("verdict = %s, want Diverge", a.Verdict)
	}
}

// TestCaseStudyWINDOWSealed: WINDOW sealed on window reduces to Async
// (Section VI-B2, last sentence).
func TestCaseStudyWINDOWSealed(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.WINDOW, "window"))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Equal(core.Async) {
		t.Errorf("verdict = %s, want Async", a.Verdict)
	}
}

// TestCaseStudyWINDOWUnsealed: WINDOW without punctuations races queries
// against clicks like POOR does.
func TestCaseStudyWINDOWUnsealed(t *testing.T) {
	a, err := dataflow.Analyze(adNetwork(t, dataflow.WINDOW))
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Equal(core.Diverge) {
		t.Errorf("verdict = %s, want Diverge", a.Verdict)
	}
}
