// Package substrate is the public façade over the simulated substrates that
// make the Blazes predictions physical: the Storm-like streaming wordcount
// (Section VI-A / Figure 11), the ad-tracking network with replicated
// reporting servers (Section VI-B / Figures 12–14), and the Bloom white-box
// path that extracts C.O.W.R. annotations from rules automatically
// (Section VII). Examples and embedding systems drive the runtimes through
// this package only; the engines themselves stay internal.
package substrate

import (
	"blazes"
	"blazes/internal/adtrack"
	"blazes/internal/bloom"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

// Time is virtual simulation time in microseconds.
type Time = sim.Time

// Virtual-time units.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// ---- Storm wordcount (Section VI-A) ----

// CommitMode selects the wordcount topology's commit discipline.
type CommitMode = storm.CommitMode

// The two commit disciplines of Figure 11.
const (
	// CommitSealed commits each batch when its seal arrives (M3).
	CommitSealed = storm.CommitSealed
	// CommitTransactional commits batches in preordained order (M1).
	CommitTransactional = storm.CommitTransactional
)

// WordcountConfig parameterizes one wordcount run.
type WordcountConfig = wc.RunConfig

// WordcountResult is the outcome: engine metrics plus the committed store.
type WordcountResult = wc.RunResult

// RunWordcount executes one wordcount topology to completion on the
// simulated cluster.
func RunWordcount(cfg WordcountConfig) (WordcountResult, error) { return wc.Run(cfg) }

// ---- Ad-tracking network (Section VI-B) ----

// Regime selects the coordination regime an ad-network run installs.
type Regime = adtrack.Regime

// The coordination regimes of Figures 12–14.
const (
	Uncoordinated = adtrack.Uncoordinated
	Ordered       = adtrack.Ordered
	Sealed        = adtrack.Sealed
)

// AdConfig parameterizes one ad-network run.
type AdConfig = adtrack.Config

// AdResult is the outcome of one ad-network run.
type AdResult = adtrack.Result

// DefaultAdConfig builds the paper-shaped configuration for the given
// number of ad servers and regime; independent selects per-server
// campaigns (enabling independent seals).
func DefaultAdConfig(adServers int, regime Regime, independent bool) AdConfig {
	return adtrack.DefaultConfig(adServers, regime, independent)
}

// RunAdNetwork executes one ad-network run on the simulated cluster.
func RunAdNetwork(cfg AdConfig) (*AdResult, error) { return adtrack.Run(cfg) }

// CrossInstanceDiff compares the answer tables of the first n replicas
// within one run; it returns "" when they agree, else a description of the
// first divergence (the paper's cross-instance anomaly).
func CrossInstanceDiff(res *AdResult, replicas int) string {
	return adtrack.CrossInstanceDiff(res, replicas)
}

// CrossRunDiff compares two runs' answer tables (the replay anomaly).
func CrossRunDiff(a, b *AdResult, replicas int) string {
	return adtrack.CrossRunDiff(a, b, replicas)
}

// ColCampaign is the campaign attribute of the click schema — the seal key
// of the paper's CAMPAIGN experiments.
const ColCampaign = adtrack.ColCampaign

// ---- Bloom white-box extraction (Section VII) ----

// BloomModule is a set of Bloom rules over input/output interfaces, tables
// and scratches.
type BloomModule = bloom.Module

// ModuleAnalysis is the white-box result: extracted path annotations plus
// lineage (injective FDs) and output schemas.
type ModuleAnalysis = bloom.ModuleAnalysis

// PathAnnotation is one automatically derived C.O.W.R. annotation.
type PathAnnotation = bloom.PathAnnotation

// ExtractAnnotations derives component annotations from a module's rules —
// no annotation file required.
func ExtractAnnotations(m *BloomModule) (*ModuleAnalysis, error) { return bloom.Analyze(m) }

// ReportModule builds the paper's reporting-server Bloom module for the
// given standing query and THRESH threshold.
func ReportModule(query blazes.AdQuery, threshold int64) (*BloomModule, error) {
	return adtrack.ReportModule(query, threshold)
}

// CacheModule builds the caching-tier Bloom module.
func CacheModule() (*BloomModule, error) { return adtrack.CacheModule() }

// WhiteboxAdNetwork assembles the full ad network from auto-annotated
// Bloom modules (Report + Cache) and returns the dataflow graph ready for
// analysis; sealKey, when non-empty, seals the click stream.
func WhiteboxAdNetwork(query blazes.AdQuery, sealKey ...string) (*blazes.Graph, error) {
	return adtrack.Graph(query, sealKey...)
}
