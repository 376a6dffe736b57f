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
	// CodeUnsealedCycle: a cycle with an order-sensitive path on it has no
	// sealed stream on it and no coordination applied — replica divergence
	// can feed back and amplify.
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

// LintGraph runs every graph diagnostic over g and returns the findings
// sorted by LintDiagnostic.Compare, so output is deterministic. The checks
// read g through the analyzer's own interface table and cycles, so lint
// and analysis agree on what is reachable and what is a cycle. The graph
// should already pass Validate — structurally broken graphs produce
// undefined (but non-panicking) lint results.
func LintGraph(g *Graph) []LintDiagnostic {
	t := internIfaces(g)
	var diags []LintDiagnostic
	diags = append(diags, lintSealSchemas(g)...)
	diags = append(diags, lintGateSchemas(t)...)
	diags = append(diags, lintReachability(t)...)
	diags = append(diags, lintAnnotations(t.comps)...)
	diags = append(diags, lintSealCompatibility(g)...)
	diags = append(diags, lintUnsealedCycles(t, findCycles(t))...)
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
func lintGateSchemas(t *ifaceTable) []LintDiagnostic {
	var diags []LintDiagnostic
	for i, s := range t.streams {
		from, to := t.from[i], t.to[i]
		if from < 0 || to < 0 {
			continue
		}
		schema, ok := t.comps[t.nodeComp[from]].OutSchema[s.FromIface]
		if !ok {
			continue
		}
		for _, p := range t.comps[t.nodeComp[to]].Paths {
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
// Reach follows paths and streams interface by interface, and a component
// counts as reached when any of its inputs is. Graphs with no sources at
// all are skipped: nothing is reachable by definition, and Validate-level
// concerns apply instead.
func lintReachability(t *ifaceTable) []LintDiagnostic {
	seen := make([]bool, len(t.nodeComp))
	var frontier []int32
	for i, s := range t.streams {
		if v := t.to[i]; s.IsSource() && v >= 0 && !seen[v] {
			seen[v] = true
			frontier = append(frontier, v)
		}
	}
	if len(frontier) == 0 {
		return nil
	}
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		for _, w := range t.succ.at(v) {
			if !seen[w] {
				seen[w] = true
				frontier = append(frontier, w)
			}
		}
	}
	var diags []LintDiagnostic
	for i, c := range t.comps {
		// An output is reached only through one of its component's inputs.
		if !slices.Contains(seen[t.compStart[i]:t.compStart[i+1]], true) {
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
func lintAnnotations(comps []*Component) []LintDiagnostic {
	var diags []LintDiagnostic
	for _, c := range comps {
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

// lintUnsealedCycles reports BLZ006: a cycle the analysis collapses with an
// order-sensitive path on it, no sealed stream on it, and no coordination
// applied to any member. Divergent replica state can feed back around such
// a cycle and amplify instead of washing out — the divergence risk the
// paper's case studies coordinate away. A cycle is the analyzer's (Section
// V-A, footnote 3): one over paths and streams, reported once per group of
// components the collapse merges.
func lintUnsealedCycles(t *ifaceTable, cy *cycles) []LintDiagnostic {
	if cy == nil {
		return nil
	}
	// Per group, under its least component: whether a path on its cycles
	// is order-sensitive, and whether a sealed stream on them or a
	// coordinated member stands the warning down.
	orderSensitive := make([]bool, len(t.comps))
	covered := make([]bool, len(t.comps))
	for i, c := range t.comps {
		r := cy.group[i]
		if r < 0 {
			continue
		}
		if c.Coordination != CoordNone {
			covered[r] = true
		}
		for k, p := range c.Paths {
			j := t.pathOff[i] + int32(k)
			if p.Ann.OrderSensitive() && cy.onCycle(t.pathIn[j], t.pathOut[j]) {
				orderSensitive[r] = true
			}
		}
	}
	for i, s := range t.streams {
		from, to := t.from[i], t.to[i]
		if !s.Seal.IsEmpty() && from >= 0 && to >= 0 && cy.onCycle(from, to) {
			covered[cy.group[t.nodeComp[to]]] = true
		}
	}

	var diags []LintDiagnostic
	for r := range int32(len(t.comps)) {
		if !orderSensitive[r] || covered[r] {
			continue
		}
		group := cy.members.at(r) // ascending, i.e. in name order
		names := make([]string, len(group))
		for k, c := range group {
			names[k] = t.comps[c].Name
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
