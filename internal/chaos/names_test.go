package chaos

import (
	"reflect"
	"testing"

	"blazes/internal/dataflow"
)

// TestWireNamesPinned holds the identifiers the workloads mint — synthetic
// "producer:seq" message ids, the generated workload's "source:seq" ids
// behind its chain hashes, the request and probe ids and the adtrack names
// of the Bloom workloads — to the literals they reach an Outcome as. Traces
// and digests are compared and archived as strings, so these are wire data:
// whatever formats them must keep these bytes, two-digit sequence numbers
// included.
func TestWireNamesPinned(t *testing.T) {
	base := DefaultPlans()[0]
	run := func(w Workload, mech dataflow.Coordination) ReplicaOutcome {
		t.Helper()
		out, err := w.Run(1, base, mech)
		if err != nil {
			t.Fatalf("%s under %s: %v", w.Name(), mech, err)
		}
		return out.Replicas[0]
	}
	check := func(what string, got, want ReplicaOutcome) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %q\n want %q", what, got, want)
		}
	}

	check("synthetic set ids",
		run(&SyntheticWorkload{Confluent: true, Producers: 2, PerProducer: 11, Reads: 1, Replicas: 1}, dataflow.CoordNone),
		ReplicaOutcome{
			Trace: []string{"p0:0,p0:1,p0:2,p0:3,p0:4,p0:5,p1:0,p1:1,p1:2,p1:3,p1:4"},
			Final: "p0:0,p0:1,p0:10,p0:2,p0:3,p0:4,p0:5,p0:6,p0:7,p0:8,p0:9,p1:0,p1:1,p1:10,p1:2,p1:3,p1:4,p1:5,p1:6,p1:7,p1:8,p1:9",
		})
	check("synthetic register value", run(SyntheticRegister(), dataflow.CoordNone),
		ReplicaOutcome{Trace: []string{"p1:1", "p0:5", "p1:6", "p1:7"}, Final: "p1:9"})
	check("synthetic chain hashes", run(SyntheticChains(false), dataflow.CoordSequenced),
		ReplicaOutcome{
			Trace: []string{
				"p0=c104f50522ede8e4",
				"p0=e633a7c3282f7dc2",
				"p0=e633a7c3282f7dc2,p1=4fe3ca9e3a843ec2",
				"p0=e633a7c3282f7dc2,p1=465ffba00d627020",
				"p0=e633a7c3282f7dc2,p1=465ffba00d627020",
			},
			Final: "p0=e633a7c3282f7dc2,p1=465ffba00d627020",
		})
	check("synthetic per-partition answers", run(SyntheticChains(true), dataflow.CoordPartitionSealed),
		ReplicaOutcome{
			Trace: []string{"p0=e633a7c3282f7dc2", "p1=465ffba00d627020", "p0=e633a7c3282f7dc2", "p1=465ffba00d627020"},
			Final: "p0=e633a7c3282f7dc2,p1=465ffba00d627020",
		})

	// The generated workload's ids only reach the outcome through its chain
	// hashes and digest, so the digest is what is pinned: three messages a
	// source, and twelve (sequence numbers 10 and 11).
	check("generated digest", run(Generated(12, 3), dataflow.CoordSequenced), ReplicaOutcome{Final: "7ddd2d983cdec482"})
	check("generated digest, chaotic", run(Generated(12, 3), dataflow.CoordNone), ReplicaOutcome{Final: "adeee4334d3ba720"})
	check("generated digest, 12 messages a source",
		run(&GeneratedWorkload{Components: 12, Seed: 3, MsgsPerSource: 12}, dataflow.CoordSequenced),
		ReplicaOutcome{Final: "e5ceebe128286699"})

	small := &BloomReportWorkload{Query: dataflow.CAMPAIGN, Threshold: 8, Replicas: 1, Servers: 1,
		ClicksPerServer: 4, Campaigns: 3, AdsPerCampaign: 2, Requests: 2}
	for _, mech := range []dataflow.Coordination{dataflow.CoordSealed, dataflow.CoordSequenced} {
		check("bloom report under "+mech.String(), run(small, mech), ReplicaOutcome{
			Trace: []string{"q0→{(ad00-0, q0, 1)}", "q1→{(ad01-1, q1, 1)}"},
			Final: "log{(ad00-0, camp00, w0, adserver0, 0),(ad00-1, camp00, w0, adserver0, 3),(ad01-1, camp01, w0, adserver0, 1),(ad02-0, camp02, w0, adserver0, 2)}" +
				" | final{fq0→{(ad00-0, fq0, 1)},fq1→{(ad01-1, fq1, 1)}}",
		})
	}
	check("ad network",
		run(&AdNetworkWorkload{Query: dataflow.CAMPAIGN, AdServers: 1, EntriesPerServer: 4, Requests: 2}, dataflow.CoordSealed),
		ReplicaOutcome{
			Trace: []string{"req000→{(ad00-0, req000, 1)}", "req001→{(ad01-1, req001, 1)}"},
			Final: "state:38487bbf1489fea1 held:0",
		})
}
