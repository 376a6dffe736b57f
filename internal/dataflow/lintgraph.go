package dataflow

import (
	"cmp"
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"blazes/internal/core"
)

// LintSeverity ranks a graph diagnostic. Errors describe graphs whose
// analysis would be vacuous or misleading (the declared metadata contradicts
// itself); warnings describe graphs that analyze fine but carry a known
// divergence or dead-weight risk.
type LintSeverity int

const (
	// SeverityWarning marks advisory findings: the analysis is sound but
	// the operator should look.
	SeverityWarning LintSeverity = iota
	// SeverityError marks contradictions in the declared metadata.
	SeverityError
)

// String names the severity for reports.
func (s LintSeverity) String() string {
	if s == SeverityError {
		return "error"
	}
	return "warning"
}

// MarshalJSON renders the severity as its name, keeping the wire form
// readable and independent of the enum's numeric values.
func (s LintSeverity) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the name form produced by MarshalJSON.
func (s *LintSeverity) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "error":
		*s = SeverityError
	case "warning":
		*s = SeverityWarning
	default:
		return fmt.Errorf("dataflow: unknown lint severity %q", name)
	}
	return nil
}

// Lint diagnostic codes. Codes are stable across releases: tooling may
// match on them, so a code is never renumbered or reused.
const (
	// CodeSealKeyNotInSchema: a stream is sealed on a key the producer's
	// declared output schema does not contain.
	CodeSealKeyNotInSchema = "BLZ001"
	// CodeGateNotInSchema: an order-sensitive path gates on attributes the
	// feeding stream's producer schema does not contain.
	CodeGateNotInSchema = "BLZ002"
	// CodeUnreachable: a component no source stream can reach.
	CodeUnreachable = "BLZ003"
	// CodeAnnotationContradiction: the same input→output pair carries both
	// a confluent and an order-sensitive annotation, or an order-sensitive
	// annotation with neither a gate nor the * marking.
	CodeAnnotationContradiction = "BLZ004"
	// CodeSealIncompatible: a sealed stream feeds an order-sensitive path
	// whose gate the seal key cannot reach through the component's
	// functional dependencies — the seal buys no determinism there.
	CodeSealIncompatible = "BLZ005"
	// CodeUnsealedCycle: a cycle with an order-sensitive member has no
	// sealed internal stream and no coordination applied — replica
	// divergence can feed back and amplify.
	CodeUnsealedCycle = "BLZ006"
)

// LintDiagnostic is one advisory finding about a graph. It complements
// Graph.Validate: Validate rejects structurally broken graphs with hard
// errors, Lint flags well-formed graphs whose metadata is contradictory or
// risky. The two never report the same defect twice.
type LintDiagnostic struct {
	// Code is the stable BLZnnn identifier.
	Code string `json:"code"`
	// Severity ranks the finding.
	Severity LintSeverity `json:"severity"`
	// Subject names the component or stream the finding is about.
	Subject string `json:"subject"`
	// Message explains the finding and how to fix it.
	Message string `json:"message"`
}

// String renders the diagnostic as "severity CODE subject: message".
func (d LintDiagnostic) String() string {
	return fmt.Sprintf("%s %s %s: %s", d.Severity, d.Code, d.Subject, d.Message)
}

// Compare orders diagnostics errors first, then by code, subject and
// message: the one order every list of findings is sorted in.
func (d LintDiagnostic) Compare(e LintDiagnostic) int {
	return cmp.Or(
		cmp.Compare(e.Severity, d.Severity), // errors first
		strings.Compare(d.Code, e.Code),
		strings.Compare(d.Subject, e.Subject),
		strings.Compare(d.Message, e.Message),
	)
}

// lintContext is the structure every lint pass shares: the sorted component
// list and component-level adjacency — built exactly once per LintGraph
// call. Before it existed each pass rebuilt its own view (and the inner
// loops re-scanned the whole stream list), which made linting quadratic on
// 10k-component graphs.
type lintContext struct {
	comps    []*Component
	index    map[string]int32 // component name → position in comps
	adj      csr              // comp-level edges over internal streams
	selfLoop []bool
}

func newLintContext(g *Graph) *lintContext {
	comps := g.Components()
	lc := &lintContext{
		comps:    comps,
		index:    make(map[string]int32, len(comps)),
		selfLoop: make([]bool, len(comps)),
	}
	for i, c := range comps {
		lc.index[c.Name] = int32(i)
	}
	var from, to []int32
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		f, t := lc.index[s.FromComp], lc.index[s.ToComp]
		from, to = append(from, f), append(to, t)
		if f == t {
			lc.selfLoop[f] = true
		}
	}
	lc.adj = groupBy(len(comps), from, to)
	return lc
}

// LintGraph runs every graph diagnostic over g and returns the findings
// sorted by LintDiagnostic.Compare, so output is deterministic. The graph
// should already pass Validate — structurally broken graphs produce
// undefined (but non-panicking) lint results.
func LintGraph(g *Graph) []LintDiagnostic {
	lc := newLintContext(g)
	var diags []LintDiagnostic
	diags = append(diags, lintSealSchemas(g)...)
	diags = append(diags, lintGateSchemas(g, lc)...)
	diags = append(diags, lintReachability(g, lc)...)
	diags = append(diags, lintAnnotations(lc)...)
	diags = append(diags, lintSealCompatibility(g)...)
	diags = append(diags, lintUnsealedCycles(g, lc)...)
	slices.SortStableFunc(diags, LintDiagnostic.Compare)
	return diags
}

// lintSealSchemas reports BLZ001: a seal key absent from the sealed
// stream's producer schema. A seal punctuates partitions of the stream's
// records, so every key attribute must exist on those records; sealing on a
// phantom attribute means no partition ever seals (or every record is its
// own partition), and the M3 guarantee evaporates silently.
func lintSealSchemas(g *Graph) []LintDiagnostic {
	var diags []LintDiagnostic
	for _, s := range g.Streams() {
		if s.Seal.IsEmpty() || s.IsSource() {
			continue
		}
		producer := g.Lookup(s.FromComp)
		if producer == nil || producer.OutSchema == nil {
			continue
		}
		schema, ok := producer.OutSchema[s.FromIface]
		if !ok {
			continue
		}
		if missing := s.Seal.Minus(schema); !missing.IsEmpty() {
			diags = append(diags, LintDiagnostic{
				Code:     CodeSealKeyNotInSchema,
				Severity: SeverityError,
				Subject:  s.Name,
				Message: fmt.Sprintf("sealed on (%s) but producer %s.%s declares schema (%s): attribute(s) %s do not exist on the stream",
					s.Seal, s.FromComp, s.FromIface, schema, missing),
			})
		}
	}
	return diags
}

// lintGateSchemas reports BLZ002: an OR/OW gate naming attributes the
// feeding producer's schema does not carry. The gate partitions input
// records; gating on an attribute the records lack degenerates to one
// partition per record, which is OR*/OW* in disguise.
func lintGateSchemas(g *Graph, lc *lintContext) []LintDiagnostic {
	var diags []LintDiagnostic
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() {
			continue
		}
		pi, ok := lc.index[s.FromComp]
		ci, ok2 := lc.index[s.ToComp]
		if !ok || !ok2 || lc.comps[pi].OutSchema == nil {
			continue
		}
		schema, ok := lc.comps[pi].OutSchema[s.FromIface]
		if !ok {
			continue
		}
		for _, p := range lc.comps[ci].Paths {
			if p.From != s.ToIface || p.Ann.Confluent || p.Ann.GateStar || p.Ann.Gate.IsEmpty() {
				continue
			}
			if missing := p.Ann.Gate.Minus(schema); !missing.IsEmpty() {
				diags = append(diags, LintDiagnostic{
					Code:     CodeGateNotInSchema,
					Severity: SeverityError,
					Subject:  s.ToComp,
					Message: fmt.Sprintf("path %s→%s gates on (%s) but stream %q carries schema (%s): attribute(s) %s are missing",
						p.From, p.To, p.Ann.Gate, s.Name, schema, missing),
				})
			}
		}
	}
	return diags
}

// lintReachability reports BLZ003: components no source stream reaches.
// An unreachable component never processes a record, so its annotations
// silently contribute nothing to the analysis — usually a mis-wired stream.
// Graphs with no sources at all are skipped: nothing is reachable by
// definition, and Validate-level concerns apply instead.
func lintReachability(g *Graph, lc *lintContext) []LintDiagnostic {
	seen := make([]bool, len(lc.comps))
	var frontier []int32
	for _, s := range g.Streams() {
		if s.IsSource() && !s.IsSink() {
			if i, ok := lc.index[s.ToComp]; ok && !seen[i] {
				seen[i] = true
				frontier = append(frontier, i)
			}
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	for len(frontier) > 0 {
		comp := frontier[0]
		frontier = frontier[1:]
		for _, w := range lc.adj.at(comp) {
			if !seen[w] {
				seen[w] = true
				frontier = append(frontier, w)
			}
		}
	}
	var diags []LintDiagnostic
	for i, c := range lc.comps {
		if !seen[i] {
			diags = append(diags, LintDiagnostic{
				Code:     CodeUnreachable,
				Severity: SeverityWarning,
				Subject:  c.Name,
				Message:  "no source stream reaches this component; it never processes a record",
			})
		}
	}
	return diags
}

// lintAnnotations reports BLZ004: contradictory annotations. Two paths over
// the same from→to pair disagreeing on confluence means the component's
// order-sensitivity is unknowable (the analysis takes the most severe, but
// the declaration is wrong either way). An order-sensitive annotation with
// an empty gate and no * marking is equally contradictory: it claims known
// partitioning but names no partition attributes. Spec-built graphs cannot
// produce the latter (ParseAnnotation defaults to *), but builder-built
// graphs can.
func lintAnnotations(lc *lintContext) []LintDiagnostic {
	var diags []LintDiagnostic
	for _, c := range lc.comps {
		kind := map[[2]string]core.Annotation{}
		flagged := map[[2]string]bool{}
		for _, p := range c.Paths {
			pair := [2]string{p.From, p.To}
			if prev, ok := kind[pair]; ok {
				if prev.Confluent != p.Ann.Confluent && !flagged[pair] {
					flagged[pair] = true
					diags = append(diags, LintDiagnostic{
						Code:     CodeAnnotationContradiction,
						Severity: SeverityError,
						Subject:  c.Name,
						Message: fmt.Sprintf("path %s→%s is annotated both %s and %s; one declaration must be wrong",
							p.From, p.To, prev, p.Ann),
					})
				}
			} else {
				kind[pair] = p.Ann
			}
			if !p.Ann.Confluent && !p.Ann.GateStar && p.Ann.Gate.IsEmpty() {
				diags = append(diags, LintDiagnostic{
					Code:     CodeAnnotationContradiction,
					Severity: SeverityError,
					Subject:  c.Name,
					Message: fmt.Sprintf("path %s→%s is order-sensitive with an empty gate and no * marking; declare the partition attributes or use OR*/OW*",
						p.From, p.To),
				})
			}
		}
	}
	return diags
}

// lintSealCompatibility reports BLZ005: a sealed stream feeding an
// order-sensitive path the seal cannot protect (Section V-A1's compatibility
// test fails). The runtime still buffers and punctuates — the cost of M3 is
// paid — but order nondeterminism passes straight through.
func lintSealCompatibility(g *Graph) []LintDiagnostic {
	var diags []LintDiagnostic
	for _, s := range g.Streams() {
		if s.Seal.IsEmpty() || s.IsSink() {
			continue
		}
		consumer := g.Lookup(s.ToComp)
		if consumer == nil {
			continue
		}
		for _, p := range consumer.PathsFrom(s.ToIface) {
			if p.Ann.Confluent {
				continue
			}
			if !p.Ann.SealCompatible(s.Seal, consumer.Deps) {
				diags = append(diags, LintDiagnostic{
					Code:     CodeSealIncompatible,
					Severity: SeverityWarning,
					Subject:  s.Name,
					Message: fmt.Sprintf("seal on (%s) cannot protect path %s→%s of %s (annotation %s): the key does not determine the gate, so sealing buys no determinism here; synthesis will fall back to an ordering-family strategy (%s or %s — pick one with WithStrategy) unless the seal key is widened",
						s.Seal, p.From, p.To, s.ToComp, p.Ann, StrategyOrdering, StrategyQuorumOrdering),
				})
			}
		}
	}
	return diags
}

// lintUnsealedCycles reports BLZ006: a component cycle with an
// order-sensitive member, no sealed stream inside the cycle, and no
// coordination applied to any member. Divergent replica state can feed back
// around such a cycle and amplify instead of washing out — the divergence
// risk the paper's case studies coordinate away.
func lintUnsealedCycles(g *Graph, lc *lintContext) []LintDiagnostic {
	groupID, n := tarjanSCC(len(lc.comps), lc.adj)
	groups := groupBy(n, groupID, nil) // members ascending, i.e. in name order
	// One pass over the streams marks which groups contain a sealed
	// internal edge, instead of rescanning the stream list per group.
	groupSealed := make([]bool, n)
	for _, s := range g.Streams() {
		if s.IsSource() || s.IsSink() || s.Seal.IsEmpty() {
			continue
		}
		f, t := lc.index[s.FromComp], lc.index[s.ToComp]
		if groupID[f] == groupID[t] {
			groupSealed[groupID[f]] = true
		}
	}

	var diags []LintDiagnostic
	for gid := range int32(n) {
		group := groups.at(gid)
		if len(group) == 1 && !lc.selfLoop[group[0]] {
			continue
		}
		orderSensitive := false
		coordinated := false
		for _, i := range group {
			for _, p := range lc.comps[i].Paths {
				if p.Ann.OrderSensitive() {
					orderSensitive = true
				}
			}
			if lc.comps[i].Coordination != CoordNone {
				coordinated = true
			}
		}
		if !orderSensitive || coordinated || groupSealed[gid] {
			continue
		}
		names := make([]string, 0, len(group))
		for _, i := range group {
			names = append(names, lc.comps[i].Name)
		}
		diags = append(diags, LintDiagnostic{
			Code:     CodeUnsealedCycle,
			Severity: SeverityWarning,
			Subject:  names[0],
			Message: fmt.Sprintf("cycle {%s} has an order-sensitive member but no sealed internal stream and no coordination; replica divergence can feed back around the cycle",
				strings.Join(names, ", ")),
		})
	}
	return diags
}
