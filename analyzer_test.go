package blazes

import (
	"path/filepath"
	"strings"
	"testing"
)

const specDir = "internal/spec/testdata"

func loadSpec(tb testing.TB, name string) *Spec {
	tb.Helper()
	s, err := LoadSpec(filepath.Join(specDir, name))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// adSpecGraph is the ad-tracking network of adreport.blazes running query,
// with the click stream sealed on sealKey when one is given.
func adSpecGraph(tb testing.TB, query AdQuery, sealKey ...string) *Graph {
	tb.Helper()
	g, err := loadSpec(tb, "adreport.blazes").Graph("adreport", WithVariant("Report", string(query)))
	if err != nil {
		tb.Fatal(err)
	}
	if len(sealKey) > 0 {
		g.Stream("clicks").Seal = Attrs(sealKey...)
	}
	return g
}

func TestAnalyzerSealRepairDoesNotMutateInput(t *testing.T) {
	g := buildWordcount(t)
	res, err := NewAnalyzer(WithSealRepair("tweets", "batch")).Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Errorf("sealed verdict = %s, want Async", res.Verdict())
	}
	if !g.Stream("tweets").Seal.IsEmpty() {
		t.Error("WithSealRepair mutated the caller's graph")
	}

	// The same analyzer, reused, still sees the unsealed input fresh.
	plain, err := NewAnalyzer().Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Deterministic() {
		t.Error("unsealed wordcount analyzed deterministic")
	}
}

func TestAnalyzerSealRepairUnknownStream(t *testing.T) {
	g := buildWordcount(t)
	_, err := NewAnalyzer(WithSealRepair("ghost", "k")).Analyze(g)
	if err == nil || !strings.Contains(err.Error(), `unknown stream "ghost"`) {
		t.Errorf("want unknown-stream error, got %v", err)
	}
}

func TestAnalyzerSealingThenSequencing(t *testing.T) {
	g := buildWordcount(t)
	seq, err := NewAnalyzer(WithStrategy("sealing", "sequencing")).Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewAnalyzer().Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Strategies()) == 0 || len(dyn.Strategies()) == 0 {
		t.Fatalf("expected strategies: seq=%d dyn=%d", len(seq.Strategies()), len(dyn.Strategies()))
	}
	if got := seq.Strategies()[0].Mechanism; got != CoordSequenced {
		t.Errorf("sealing,sequencing mechanism = %s, want M1", got)
	}
	if got := dyn.Strategies()[0].Mechanism; got != CoordDynamicOrder {
		t.Errorf("default mechanism = %s, want M2", got)
	}
}

func TestAnalyzerRepairReachesFixpoint(t *testing.T) {
	g := buildWordcount(t)

	// M1 sequencing removes order sensitivity entirely: deterministic.
	res, err := NewAnalyzer(WithStrategy("sealing", "sequencing")).Repair(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Repaired() {
		t.Error("Repaired() = false after Repair")
	}
	if !res.Deterministic() {
		t.Errorf("post-repair (M1) verdict = %s, want deterministic", res.Verdict())
	}
	if len(res.Strategies()) == 0 {
		t.Error("Repair applied no strategies to an anomalous dataflow")
	}
	// Repair must not mutate the input graph either.
	if g.Lookup("Count").Coordination != CoordNone {
		t.Error("Repair mutated the caller's graph")
	}

	// The default M2 dynamic ordering agrees within a run but not across
	// runs (Figure 5): the fixpoint verdict stays Run.
	dyn, err := NewAnalyzer().Repair(g)
	if err != nil {
		t.Fatal(err)
	}
	if !dyn.Verdict().Equal(Run) {
		t.Errorf("post-repair (M2) verdict = %s, want Run", dyn.Verdict())
	}
}

func TestSpecVariantSelection(t *testing.T) {
	s := loadSpec(t, "adreport.blazes")

	comps := s.Components()
	if len(comps) != 2 || comps[0] != "Report" {
		t.Fatalf("Components() = %v", comps)
	}
	variants, ok := s.Variants("Report")
	if !ok || len(variants) != 4 {
		t.Fatalf("Variants(Report) = %v, %v", variants, ok)
	}
	if streams := s.Streams(); len(streams) != 6 {
		t.Fatalf("Streams() = %v", streams)
	}

	g, err := s.Graph("ad-campaign", WithVariant("Report", "CAMPAIGN"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnalyzer(WithSealRepair("clicks", "campaign")).Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Errorf("CAMPAIGN + seal(campaign) verdict = %s, want Async", res.Verdict())
	}

	if _, err := s.Graph("bad", WithVariant("Report", "NOPE")); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestSpecName(t *testing.T) {
	if got := SpecName("internal/spec/testdata/wordcount.blazes"); got != "wordcount" {
		t.Errorf("SpecName = %q", got)
	}
}
