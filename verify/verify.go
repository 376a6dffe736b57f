// Package verify is the public façade over the schedule-exploration
// verification harness (internal/chaos): it proves, by adversarial
// execution, the two-sided Blazes guarantee for a workload — programs the
// analyzer certifies confluent converge without coordination on every
// delivery schedule, and non-confluent programs coordinated with the
// synthesized strategy (sealing or sequencing, installed on the
// coordination substrates of internal/coord) are outcome-invariant, while
// stripping that coordination reproduces the predicted divergence.
//
// A Check explores Seeds schedules per (mechanism, fault plan)
// configuration; fault plans inject reordering, duplication, bounded extra
// delay, and partition-then-heal on every simulated link. The result is a
// machine-readable Report whose oracle verdicts classify disagreements
// into the paper's anomaly classes (cross-run and cross-instance
// nondeterminism, replica divergence).
//
//	rep, err := verify.Check(verify.Wordcount(), verify.Options{})
//	if err != nil || !rep.Holds { ... }
package verify

import (
	"context"
	"encoding/json"

	"blazes"
	"blazes/internal/chaos"
)

// Workload is a runnable system under test: it exposes its annotated
// dataflow for analysis and executes seeded runs under fault plans with a
// chosen delivery mechanism installed.
type Workload = chaos.Workload

// Plan is one adversarial delivery configuration.
type Plan = chaos.FaultPlan

// Report is the outcome of one Check.
type Report = chaos.Report

// Sweep is the oracle verdict for one (mechanism, plan) configuration.
type Sweep = chaos.Sweep

// Anomalies records the observed anomaly classes of Figure 5.
type Anomalies = chaos.Anomalies

// DefaultSeeds is the schedule count explored per configuration when
// Options.Seeds is zero.
const DefaultSeeds = chaos.DefaultSeeds

// DefaultPlans is the standard adversarial sweep: baseline jitter, heavy
// reordering, at-least-once duplication, and a partition that heals
// mid-run.
func DefaultPlans() []Plan { return chaos.DefaultPlans() }

// Options tunes a verification run.
type Options struct {
	// Seeds is the number of schedules explored per (mechanism, plan)
	// configuration; 0 selects DefaultSeeds (64).
	Seeds int
	// Plans is the fault-plan sweep; nil selects DefaultPlans.
	Plans []Plan
	// Prefer names coordination strategies synthesis tries, in order,
	// before the default sealing-then-ordering chain (see blazes/strategy;
	// {"sealing", "sequencing"} selects M1 over M2 where inputs must be
	// ordered); empty keeps the default chain. An unknown name is an error
	// before any schedule runs.
	Prefer []string
	// Parallelism is the worker count for exploring seeded schedules
	// concurrently (each on its own simulator, merged in seed order): the
	// report — anomalies, details, JSON bytes — is byte-identical to a
	// sequential sweep, only faster on multicore. 0 or 1 keeps the sweep
	// sequential; < 0 selects GOMAXPROCS.
	Parallelism int
}

// Check verifies the Blazes guarantee for one workload; see the package
// documentation. The returned Report's Holds field is the verdict.
func Check(w Workload, opts Options) (*Report, error) {
	return CheckContext(context.Background(), w, opts)
}

// CheckContext is Check with cancellation: once ctx is done, sweep workers
// stop picking up new seeded schedules, in-flight runs finish, and the
// check returns the context's error — a multi-minute sweep stops within one
// seed's run time instead of running to completion.
func CheckContext(ctx context.Context, w Workload, opts Options) (*Report, error) {
	return chaos.Check(ctx, w, opts.config())
}

// config is the harness form of the options.
func (opts Options) config() chaos.Config {
	return chaos.Config{
		Seeds:       opts.Seeds,
		Plans:       opts.Plans,
		Prefer:      opts.Prefer,
		Parallelism: opts.Parallelism,
	}
}

// Wordcount is the paper's streaming wordcount on the simulated Storm
// engine: sealing maps to punctuated batches with sealed commits,
// sequencing to transactional commits, and stripping the coordination
// reverts to timer-guessed batch boundaries.
func Wordcount() Workload { return chaos.Wordcount() }

// AdNetwork is the paper's full ad-tracking network (replicated Bloom
// reporting servers, ad-server click plan, the Section VIII-B coordination
// regimes) with the click source sealed per campaign.
func AdNetwork() Workload { return chaos.AdNetwork() }

// ReplicatedReport is the reporting-server Bloom module alone, replicated,
// with annotations extracted by the white-box analyzer. The query selects
// the variant: THRESH is confluent, POOR needs ordering, CAMPAIGN seals
// per campaign.
func ReplicatedReport(query blazes.AdQuery) Workload { return chaos.ReplicatedReport(query) }

// SyntheticSet is the confluent Figure 5 component: a replicated grow-only
// set.
func SyntheticSet() Workload { return chaos.SyntheticSet() }

// SyntheticChains is the order-sensitive Figure 5 component: replicated
// per-producer hash chains; gated seals the source per producer (M3),
// ungated forces ordering (M2/M1).
func SyntheticChains(gated bool) Workload { return chaos.SyntheticChains(gated) }

// Workloads returns the standard verification suite, covering the Storm,
// Bloom, and synthetic substrates and every Figure 5 mechanism. Every
// member's name resolves through LookupWorkload.
func Workloads() []Workload { return chaos.Suite() }

// MarshalReports renders reports as indented JSON (a stable array, one
// element per workload).
func MarshalReports(reports []*Report) ([]byte, error) {
	return json.MarshalIndent(reports, "", "  ")
}
