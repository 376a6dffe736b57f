package blazes

import (
	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/spec"
)

// This file re-exports the Blazes domain vocabulary so that programs embed
// the analysis through `import "blazes"` alone. The aliases are the same
// types the internal packages use, so graphs built here flow through the
// analyzer without conversion; the internal packages stay free to move as
// long as these names keep their meaning.

// Label is a stream label of the Figure 8 lattice: a kind plus, for Seal
// and NDRead, the attribute subscript.
type Label = core.Label

// LabelKind enumerates the stream labels of Figure 8.
type LabelKind = core.LabelKind

// The stream-label kinds of Figure 8, from least to most severe.
const (
	LNDRead  = core.LNDRead
	LTaint   = core.LTaint
	LSeal    = core.LSeal
	LAsync   = core.LAsync
	LRun     = core.LRun
	LInst    = core.LInst
	LDiverge = core.LDiverge
)

// The subscript-free labels.
var (
	Async   = core.Async
	Run     = core.Run
	Inst    = core.Inst
	Diverge = core.Diverge
)

// Seal returns the Seal_key label for the given key attributes.
func Seal(key ...string) Label { return core.Seal(key...) }

// Annotation is a C.O.W.R. component-path annotation (Figure 7).
type Annotation = core.Annotation

// The confluent annotations. Order-sensitive annotations are built with
// ORGate/OWGate/ORStar/OWStar.
var (
	CR = core.CR
	CW = core.CW
)

// ORGate returns the OR_gate annotation: order-sensitive, read-only,
// partitioned on the given attributes.
func ORGate(gate ...string) Annotation { return core.ORGate(gate...) }

// OWGate returns the OW_gate annotation: order-sensitive, stateful,
// partitioned on the given attributes.
func OWGate(gate ...string) Annotation { return core.OWGate(gate...) }

// ORStar returns OR*: order-sensitive read with unknown partitioning.
func ORStar() Annotation { return core.ORStar() }

// OWStar returns OW*: order-sensitive write with unknown partitioning.
func OWStar() Annotation { return core.OWStar() }

// ParseAnnotation parses the paper's textual annotation names ("CR", "CW",
// "OR", "OW", "OR*", "OW*") with an optional subscript list.
func ParseAnnotation(label string, subscript []string) (Annotation, error) {
	return core.ParseAnnotation(label, subscript)
}

// Step records one inference step of the Figure 9 reduction rules.
type Step = core.Step

// Reconciliation captures one Figure 10 run at an output interface.
type Reconciliation = core.Reconciliation

// AttrSet is an immutable sorted set of attribute names (seal keys, gates,
// schemas).
type AttrSet = fd.AttrSet

// Attrs builds an attribute set from names.
func Attrs(names ...string) AttrSet { return fd.NewAttrSet(names...) }

// FDSet carries injective functional-dependency lineage for white-box
// components (seal-compatibility and key chasing).
type FDSet = fd.Set

// NewFDSet builds a dependency set from the given FDs.
func NewFDSet(fds ...FD) *FDSet { return fd.NewSet(fds...) }

// FD is one (possibly injective) functional dependency.
type FD = fd.FD

// InjectiveFD declares from ↣ to.
func InjectiveFD(from, to AttrSet) FD { return fd.NewInjectiveFD(from, to) }

// IdentityFD declares attr ↣ attr (the attribute passes through unchanged).
func IdentityFD(attr string) FD { return fd.Identity(attr) }

// RenameFD declares from ↣ to for single attributes (a projection rename).
func RenameFD(from, to string) FD { return fd.Rename(from, to) }

// Graph is a logical dataflow: components wired by streams. Build one with
// a GraphBuilder (or load one from a Spec) and hand it to an Analyzer.
type Graph = dataflow.Graph

// Component is a unit of computation and storage with annotated paths.
type Component = dataflow.Component

// Stream connects component interfaces (or external sources/sinks).
type Stream = dataflow.Stream

// Analysis is the raw whole-dataflow analysis result. Most callers want
// the Result/Report returned by Analyzer; Analysis is exposed for tools
// that walk derivations directly.
type Analysis = dataflow.Analysis

// Strategy is a synthesized coordination plan for one component.
type Strategy = dataflow.Strategy

// Coordination enumerates the delivery mechanisms of Figure 5.
type Coordination = dataflow.Coordination

// The delivery mechanisms of Figure 5, plus the mechanisms installed by
// the extension strategies (see the blazes/strategy package).
const (
	CoordNone            = dataflow.CoordNone
	CoordSequenced       = dataflow.CoordSequenced
	CoordDynamicOrder    = dataflow.CoordDynamicOrder
	CoordSealed          = dataflow.CoordSealed
	CoordQuorumOrder     = dataflow.CoordQuorumOrder
	CoordPartitionSealed = dataflow.CoordPartitionSealed
)

// AdQuery selects which continuous query (Figure 6) the paper's reporting
// server runs.
type AdQuery = dataflow.AdQuery

// The four reporting-server queries of Figure 6.
const (
	THRESH   = dataflow.THRESH
	POOR     = dataflow.POOR
	WINDOW   = dataflow.WINDOW
	CAMPAIGN = dataflow.CAMPAIGN
)

// WordcountTopology builds the paper's streaming wordcount dataflow
// (Section VI-A) from WordcountSpec; sealBatch seals the tweet source per
// batch.
func WordcountTopology(sealBatch bool) *Graph { return spec.WordcountGraph(sealBatch) }

// WordcountSpec returns the Blazes spec text of the streaming wordcount,
// the one WordcountTopology builds.
func WordcountSpec() string { return spec.Wordcount }
