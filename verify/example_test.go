package verify_test

import (
	"fmt"

	"blazes/verify"
)

// Example verifies the confluent grow-only set from Figure 5 by schedule
// exploration: the analyzer certifies it deterministic with no strategies,
// so the harness runs it bare under every fault plan and asserts that all
// seeded schedules converge to the same eventual outcome.
//
// The seeded runs spread over one worker per GOMAXPROCS — each schedule
// runs on its own simulator and the oracle folds outcomes in seed order,
// so the report (and its JSON form) is byte-identical at any GOMAXPROCS.
func Example() {
	rep, err := verify.Check(verify.SyntheticSet(), verify.Options{Seeds: 16})
	if err != nil {
		panic(err)
	}
	fmt.Printf("workload %s: verdict %s, holds %v\n", rep.Workload, rep.Verdict, rep.Holds)
	for _, s := range rep.Coordinated {
		fmt.Printf("  %s under %s: observed [%s]\n", s.Mechanism, s.Plan, s.Observed)
	}
	// Output:
	// workload synthetic-set: verdict Async, holds true
	//   none under baseline: observed [Run:- Inst:- Div:-]
	//   none under reorder: observed [Run:- Inst:- Div:-]
	//   none under duplicate: observed [Run:- Inst:- Div:-]
	//   none under partition: observed [Run:- Inst:- Div:-]
}
