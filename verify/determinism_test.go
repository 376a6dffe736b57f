package verify

import (
	"bytes"
	"runtime"
	"testing"
)

// reportJSON runs the given workloads at the current GOMAXPROCS and
// returns the marshalled report array — the bytes `blazes verify -json`
// would print.
func reportJSON(t *testing.T) []byte {
	t.Helper()
	opts := Options{Seeds: 8}
	var reports []*Report
	for _, w := range []Workload{Wordcount(), ReplicatedReport("CAMPAIGN"), SyntheticSet()} {
		rep, err := Check(w, opts)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	out, err := MarshalReports(reports)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestReportBytesInvariantUnderParallelism pins the determinism matrix the
// parallel runtime must uphold: the full JSON report — oracle verdicts,
// anomaly details, everything — is byte-identical at GOMAXPROCS 1 (the
// sequential sweep) and at GOMAXPROCS 4 and 8. The CI race job runs this
// under -race, so a data race anywhere in the concurrent sweeps fails the
// build.
func TestReportBytesInvariantUnderParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-sweep matrix; skipped in -short")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := reportJSON(t)
	for _, procs := range []int{4, 8} {
		runtime.GOMAXPROCS(procs)
		if got := reportJSON(t); !bytes.Equal(got, want) {
			t.Fatalf("GOMAXPROCS=%d: parallel report differs from sequential:\n--- sequential\n%s\n--- parallel\n%s",
				procs, want, got)
		}
	}
}
