package blazes_test

import (
	"context"
	"fmt"

	"blazes"
)

// Example analyzes the paper's streaming wordcount (Figure 2) end to end:
// build the annotated dataflow with the fluent builder, run the analyzer,
// and read the verdict before and after sealing the input per batch.
func Example() {
	g, err := blazes.NewGraphBuilder("wordcount").
		ComponentPath("Splitter", "tweets", "words", blazes.CR).
		ComponentPath("Count", "words", "counts", blazes.OWGate("word", "batch")).
		ComponentPath("Commit", "counts", "db", blazes.CW).
		Source("tweets", "Splitter", "tweets").
		Stream("words", "Splitter", "words", "Count", "words").
		Stream("counts", "Count", "counts", "Commit", "counts").
		Sink("db", "Commit", "db").
		Build()
	if err != nil {
		panic(err)
	}

	// Unsealed, the order-sensitive Count makes the output nondeterministic.
	res, err := blazes.NewAnalyzer().Analyze(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("unsealed: verdict %s, deterministic %v\n", res.Verdict(), res.Deterministic())

	// Sealing the tweet source per batch matches Count's gate: no global
	// coordination is needed, only the per-batch seal protocol.
	sealed, err := blazes.NewAnalyzer(blazes.WithSealRepair("tweets", "batch")).Synthesize(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sealed: verdict %s, deterministic %v\n", sealed.Verdict(), sealed.Deterministic())
	// Output:
	// unsealed: verdict Run, deterministic false
	// sealed: verdict Async, deterministic true
}

// ExampleSession drives the paper's interactive repair loop without paying
// a full analysis per step: open a session, analyze, apply the repair the
// report suggests, and re-analyze — the second Analyze re-derives only the
// components the seal can affect, and its Delta section says exactly what
// the repair bought.
func ExampleSession() {
	ctx := context.Background()
	s, err := blazes.OpenSession(blazes.WordcountTopology(false))
	if err != nil {
		panic(err)
	}

	rep, err := s.Analyze(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("before: verdict %s\n", rep.Verdict.Kind)

	// The cheapest repair: tell Blazes the producer punctuates the tweet
	// stream per batch, and re-analyze incrementally.
	if err := s.SealStream("tweets", "batch"); err != nil {
		panic(err)
	}
	rep, err = s.Analyze(ctx)
	if err != nil {
		panic(err)
	}
	fmt.Printf("after:  verdict %s\n", rep.Verdict.Kind)
	fmt.Printf("delta:  verdict %s -> %s, %d stream labels changed\n",
		rep.Delta.Verdict.Before.Kind, rep.Delta.Verdict.After.Kind, len(rep.Delta.Streams))
	// Output:
	// before: verdict Run
	// after:  verdict Async
	// delta:  verdict Run -> Async, 4 stream labels changed
}

// ExampleComponentBuilder_Deps is Section V-A1's compatibility test. Report
// gates its order-sensitive path on camp, and its clicks arrive sealed on
// campaign. Without lineage the seal says nothing about camp, so Report
// needs a total order, and the identity campaign ↣ campaign, which says only
// that campaign passes through, changes nothing; the lineage campaign ↣
// camp, as a rename or as the injective FD it abbreviates, makes the seal
// compatible with the gate.
func ExampleComponentBuilder_Deps() {
	for _, lineage := range []struct {
		name string
		deps *blazes.FDSet
	}{
		{"no lineage", nil},
		{"identity", blazes.NewFDSet(blazes.IdentityFD("campaign"))},
		{"rename", blazes.NewFDSet(blazes.RenameFD("campaign", "camp"))},
		{"injective", blazes.NewFDSet(blazes.InjectiveFD(blazes.Attrs("campaign"), blazes.Attrs("camp")))},
	} {
		g := blazes.NewGraphBuilder("campaign-report").
			Component("Report").Path("clicks", "response", blazes.OWGate("camp")).Deps(lineage.deps).Graph().
			Source("clicks", "Report", "clicks").
			Sink("report", "Report", "response").
			Seal("clicks", "campaign").
			MustBuild()
		res, err := blazes.NewAnalyzer().Synthesize(g)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: verdict %s, %s\n", lineage.name, res.Verdict(), res.Strategies()[0])
	}
	// Output:
	// no lineage: verdict Run, Report: dynamic ordering (M2) over inputs clicks
	// identity: verdict Run, Report: dynamic ordering (M2) over inputs clicks
	// rename: verdict Async, Report: seal-based coordination — clicks on (campaign)
	// injective: verdict Async, Report: seal-based coordination — clicks on (campaign)
}
