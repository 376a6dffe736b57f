package dataflow

import (
	"context"
	"math/rand"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

// fullEqual asserts an analysis matches the naive reference analysis of
// the same graph on every observable: verdict, and the full rendered
// derivation (every step, reconciliation and stream label).
func fullEqual(t *testing.T, tag string, a *Analysis, g *Graph) {
	t.Helper()
	ref, err := refAnalyze(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", tag, err)
	}
	if got, want := a.Verdict.String(), ref.verdict.String(); got != want {
		t.Fatalf("%s: verdict = %s, want %s", tag, got, want)
	}
	if got, want := a.Explain(), ref.explain(); got != want {
		t.Fatalf("%s: derivation differs:\n got: %s\nwant: %s", tag, got, want)
	}
}

// TestIncrementalSealFlip: sealing and unsealing a source stream matches a
// fresh analysis without a structural rebuild.
func TestIncrementalSealFlip(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(wordcountTopology(false))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	for i, key := range []fd.AttrSet{fd.NewAttrSet("batch"), {}, fd.NewAttrSet("batch", "word")} {
		inc.Graph().Stream("tweets").Seal = key
		inc.NoteStreamChange("tweets")
		a, stats, err := inc.Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rebuilt {
			t.Fatalf("flip %d: seal flip rebuilt the structure", i)
		}
		fullEqual(t, "seal", a, inc.Graph())
	}
}

// TestIncrementalTopologyMutations: adding and removing streams and
// components forces a rebuild and matches.
func TestIncrementalTopologyMutations(t *testing.T) {
	ctx := context.Background()
	inc := NewIncremental(wordcountTopology(true))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	g := inc.Graph()

	// Tap the counts stream into a new auditing component.
	g.Component("Audit").AddPath("counts", "log", core.CW)
	g.Connect("audit-in", "Count", "counts", "Audit", "counts")
	g.Sink("audit-log", "Audit", "log")
	inc.NoteTopologyChange()
	a, stats, err := inc.Analyze(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Rebuilt {
		t.Fatal("topology change should rebuild")
	}
	fullEqual(t, "add", a, g)

	// Remove the tap again.
	if !g.RemoveStream("audit-in") || !g.RemoveStream("audit-log") {
		t.Fatal("RemoveStream failed")
	}
	g.Lookup("Audit").SetPaths(nil)
	inc.NoteTopologyChange()
	if _, _, err := inc.Analyze(ctx); err == nil {
		t.Fatal("component with no paths should fail validation")
	}
	// Restore a valid path and re-analyze.
	g.Lookup("Audit").SetPaths([]Path{{From: "counts", To: "log", Ann: core.CW}})
	inc.NoteTopologyChange()
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestIncrementalRandomizedFlips drives random annotation/seal flips on the
// wordcount and checks each against fresh analysis.
func TestIncrementalRandomizedFlips(t *testing.T) {
	ctx := context.Background()
	anns := []core.Annotation{core.CR, core.CW, core.ORGate("word"), core.OWGate("word", "batch"), core.ORStar(), core.OWStar()}
	rng := rand.New(rand.NewSource(7))
	inc := NewIncremental(wordcountTopology(true))
	if _, _, err := inc.Analyze(ctx); err != nil {
		t.Fatal(err)
	}
	comps := []string{"Splitter", "Count", "Commit"}
	for i := 0; i < 60; i++ {
		name := comps[rng.Intn(len(comps))]
		c := inc.Graph().Lookup(name)
		p := c.Paths[rng.Intn(len(c.Paths))]
		c.SetPathAnn(p.From, p.To, anns[rng.Intn(len(anns))])
		inc.NoteAnnotationChange(name)
		if rng.Intn(3) == 0 {
			s := inc.Graph().Stream("tweets")
			if s.Seal.IsEmpty() {
				s.Seal = fd.NewAttrSet("batch")
			} else {
				s.Seal = fd.AttrSet{}
			}
			inc.NoteStreamChange("tweets")
		}
		a, _, err := inc.Analyze(ctx)
		if err != nil {
			t.Fatal(err)
		}
		fullEqual(t, "rand", a, inc.Graph())
	}
}
