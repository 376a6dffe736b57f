package blazes

import (
	"slices"

	"blazes/internal/dataflow"
)

// LintDiagnostic is one advisory finding about a dataflow graph, carrying a
// stable BLZnnn code, a severity, and the component or stream it concerns.
//
// Lint complements Graph.Validate: Validate rejects structurally broken
// graphs (unknown endpoints, pathless components) with hard errors, while
// Lint flags well-formed graphs whose declared metadata is contradictory
// (error severity) or carries a known divergence or dead-weight risk
// (warning severity). A defect is reported by exactly one of the two.
type LintDiagnostic = dataflow.LintDiagnostic

// LintSeverity ranks a lint diagnostic.
type LintSeverity = dataflow.LintSeverity

// The lint severities.
const (
	SeverityWarning = dataflow.SeverityWarning
	SeverityError   = dataflow.SeverityError
)

// The stable lint diagnostic codes. Tooling may match on them; a code is
// never renumbered or reused.
const (
	// CodeSealKeyNotInSchema (error): a stream is sealed on a key its
	// producer's declared output schema does not contain.
	CodeSealKeyNotInSchema = dataflow.CodeSealKeyNotInSchema
	// CodeGateNotInSchema (error): an OR/OW gate names attributes the
	// feeding stream's schema does not carry.
	CodeGateNotInSchema = dataflow.CodeGateNotInSchema
	// CodeUnreachable (warning): no source stream reaches the component.
	CodeUnreachable = dataflow.CodeUnreachable
	// CodeAnnotationContradiction (error): the same path is declared both
	// confluent and order-sensitive, or is order-sensitive with neither a
	// gate nor the * marking.
	CodeAnnotationContradiction = dataflow.CodeAnnotationContradiction
	// CodeSealIncompatible (warning): a seal cannot protect the
	// order-sensitive path it feeds (the key does not determine the gate).
	CodeSealIncompatible = dataflow.CodeSealIncompatible
	// CodeUnsealedCycle (warning): a cycle with an order-sensitive path on
	// it has no sealed stream on it and no coordination applied.
	CodeUnsealedCycle = dataflow.CodeUnsealedCycle
)

// Lint runs every graph diagnostic over g and returns the findings sorted
// errors-first, then by code and subject, so the output is deterministic.
// A nil or empty result means the graph is clean.
func Lint(g *Graph) []LintDiagnostic {
	return dataflow.LintGraph(g)
}

// HasLintErrors reports whether any diagnostic has error severity — the
// condition under which `blazes lint` exits non-zero.
func HasLintErrors(diags []LintDiagnostic) bool {
	for _, d := range diags {
		if d.Severity == SeverityError {
			return true
		}
	}
	return false
}

// Lint runs the graph diagnostics over the session's current graph. Like
// the read-only inspectors it does not count as a mutation and does not
// disturb the incremental analysis state. The diagnostics are computed once
// per version: a second call before the next mutation returns a copy of
// the first one's.
func (s *Session) Lint() []LintDiagnostic {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.inc.Version(); !s.linted || s.lintAt != v {
		s.lint, s.lintAt, s.linted = dataflow.LintGraph(s.inc.Graph()), v, true
	}
	return slices.Clone(s.lint)
}
