// Whitebox: write Bloom rules, extract C.O.W.R. annotations automatically
// (no annotation file), run the Blazes analysis and synthesis end to end —
// the Section VII workflow.
//
//	go run ./examples/whitebox
package main

import (
	"fmt"

	"blazes"
	"blazes/substrate"
)

func main() {
	for _, query := range []blazes.AdQuery{blazes.THRESH, blazes.POOR, blazes.WINDOW, blazes.CAMPAIGN} {
		mod, err := substrate.ReportModule(query, 100)
		if err != nil {
			panic(err)
		}
		analysis, err := substrate.ExtractAnnotations(mod)
		if err != nil {
			panic(err)
		}
		fmt.Printf("== %s: extracted annotations ==\n", query)
		for _, p := range analysis.Paths {
			fmt.Printf("  %s → %s : %s\n", p.From, p.To, p.Ann)
		}

		// Assemble the full network (Report + Cache, both auto-annotated)
		// and analyze; CAMPAIGN and WINDOW also seal the click stream.
		var seal []string
		switch query {
		case blazes.CAMPAIGN:
			seal = []string{substrate.ColCampaign}
		case blazes.WINDOW:
			seal = []string{"window"}
		}
		g, err := substrate.WhiteboxAdNetwork(query, seal...)
		if err != nil {
			panic(err)
		}
		res, err := blazes.NewAnalyzer().Synthesize(g)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  whole-dataflow verdict: %s (deterministic: %v)\n", res.Verdict(), res.Deterministic())
		for _, st := range res.Strategies() {
			fmt.Printf("  strategy: %s\n", st)
		}
		fmt.Println()
	}
}
