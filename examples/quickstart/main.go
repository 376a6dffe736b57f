// Quickstart: build an annotated dataflow with the fluent GraphBuilder,
// run the Blazes Analyzer, read the verdict, and let it synthesize the
// cheapest safe coordination — all through the public `blazes` API.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"blazes"
	"blazes/strategy"
)

func main() {
	// The paper's streaming wordcount (Figure 2): Splitter divides tweets
	// into words (confluent, stateless: CR); Count tallies per (word,
	// batch) — stateful and order-sensitive, but partitioned: OW_{word,
	// batch}; Commit appends to a keyed store (confluent, stateful: CW).
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

	// Blazes recommends coordination; for a replay-based engine that
	// means sequencing (Storm's transactional topologies) wherever a seal
	// does not suffice.
	prefer := blazes.WithStrategy(strategy.Sealing, strategy.Sequencing)
	analyzer := blazes.NewAnalyzer(prefer)
	res, err := analyzer.Synthesize(g)
	if err != nil {
		panic(err)
	}
	fmt.Println("== unsealed analysis ==")
	fmt.Println(res.Explain())
	fmt.Printf("deterministic: %v\n\n", res.Deterministic())
	for _, st := range res.Strategies() {
		fmt.Println("strategy:", st, "—", st.Reason)
	}

	// Now tell Blazes the input stream is punctuated per batch: the seal
	// is compatible with Count's gate, so no global coordination is
	// needed — only the per-batch seal protocol.
	fmt.Println("\n== sealed on batch ==")
	sealed := blazes.NewAnalyzer(prefer, blazes.WithSealRepair("tweets", "batch"))
	res2, err := sealed.Synthesize(g)
	if err != nil {
		panic(err)
	}
	fmt.Printf("verdict: %s, deterministic: %v\n", res2.Verdict(), res2.Deterministic())
	for _, st := range res2.Strategies() {
		fmt.Println("strategy:", st, "—", st.Reason)
	}
}
