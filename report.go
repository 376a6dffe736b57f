package blazes

import (
	"encoding/json"
	"fmt"
	"slices"

	"blazes/internal/dataflow"
)

// ReportVersion identifies the Report JSON schema. Consumers should reject
// versions they do not understand; the schema only grows within a version.
// v2 adds the optional Delta section produced by analysis sessions; v1
// documents (which never carry a delta) still decode.
const (
	ReportVersion   = "blazes.report/v2"
	ReportVersionV1 = "blazes.report/v1"
)

// Report is the stable machine-readable projection of a Result: every
// stream's derived label, every component's derivation, the verdict, and
// any synthesized or applied strategies. It is plain data — it marshals to
// JSON and back without loss (encode → decode → deep-equal), which is what
// `blazes -json` emits and what embedding systems should persist.
//
// Streams and Components hold their entries by address (on the wire a
// pointer is its element, so the JSON is that of a list of objects), and no
// entry is nil. A report is read-only once handed out, its entries included:
// a session's consecutive reports share, by address, every entry the edit
// between them left alone, and a report may be read — encoded, say — while
// the session that made it analyzes again.
type Report struct {
	Version  string `json:"version"`
	Dataflow string `json:"dataflow"`
	// Verdict is the highest-severity label among sink streams.
	Verdict       LabelReport `json:"verdict"`
	Deterministic bool        `json:"deterministic"`
	// Streams lists every stream of the analyzed (collapsed) graph with
	// its derived label, in name order.
	Streams []*StreamReport `json:"streams"`
	// Components lists the per-component derivations in name order; cycle
	// supernodes appear under their collapsed name ("scc+A+B").
	Components []*ComponentReport `json:"components"`
	// Strategies lists synthesized strategies (after Synthesize) or the
	// strategies applied to reach the fixpoint (after Repair).
	Strategies []StrategyReport `json:"strategies,omitempty"`
	// Repaired marks a post-repair fixpoint report: Strategies have been
	// applied and the labels reflect the coordinated dataflow.
	Repaired bool `json:"repaired,omitempty"`
	// Delta, present on session re-analyses only, records what changed
	// since the session's previous analysis. One-shot analyzer reports and
	// a session's first analysis omit it.
	Delta *Delta `json:"delta,omitempty"`
}

// Delta is the difference between two consecutive analyses of one session:
// the repair loop reads it to see exactly what an annotation flip, seal, or
// rewiring bought.
type Delta struct {
	// Since is the session-local sequence number of the analysis this
	// delta is relative to (the first analysis is 1).
	Since int `json:"since"`
	// Streams lists the streams whose derived label changed, in name
	// order. Streams that appeared or disappeared carry a zero Before or
	// After label (kind "").
	Streams []StreamDelta `json:"streams,omitempty"`
	// Verdict is present when the dataflow verdict changed.
	Verdict *VerdictDelta `json:"verdict,omitempty"`
	// Strategies lists per-component strategy changes (both reports must
	// carry strategies for the comparison to be meaningful; a plain
	// Analyze after a Synthesize records no strategy delta).
	Strategies []StrategyDelta `json:"strategies,omitempty"`
	// Recomputed lists the components whose derivation was actually
	// re-run by the incremental engine; everything else was served from
	// the memo. Sorted by name.
	Recomputed []string `json:"recomputed,omitempty"`
	// Reused counts output-interface derivations served from the memo.
	Reused int `json:"reused"`
}

// StreamDelta is one stream label change.
type StreamDelta struct {
	Name   string      `json:"name"`
	Before LabelReport `json:"before"`
	After  LabelReport `json:"after"`
}

// VerdictDelta is the verdict change.
type VerdictDelta struct {
	Before LabelReport `json:"before"`
	After  LabelReport `json:"after"`
}

// StrategyDelta is one component's strategy change; a nil Before marks a
// strategy that appeared, a nil After one that disappeared.
type StrategyDelta struct {
	Component string          `json:"component"`
	Before    *StrategyReport `json:"before,omitempty"`
	After     *StrategyReport `json:"after,omitempty"`
}

// LabelReport is a stream label in wire form.
type LabelReport struct {
	// Kind is the paper's label name: "NDRead", "Taint", "Seal", "Async",
	// "Run", "Inst" or "Diverge".
	Kind string `json:"kind"`
	// Key carries the seal key (Seal) or read gate (NDRead) attributes.
	Key []string `json:"key,omitempty"`
	// Severity is the label's rank in Figure 8 (higher is worse).
	Severity int `json:"severity"`
}

// StreamReport describes one stream and its derived label.
type StreamReport struct {
	Name string `json:"name"`
	// From/To are "Component.iface" endpoints; empty marks an external
	// source or sink.
	From       string      `json:"from,omitempty"`
	To         string      `json:"to,omitempty"`
	Label      LabelReport `json:"label"`
	Seal       []string    `json:"seal,omitempty"`
	Replicated bool        `json:"replicated,omitempty"`
}

// StepReport is one Figure 9 inference step.
type StepReport struct {
	Input      LabelReport `json:"input"`
	Annotation string      `json:"annotation"`
	Rule       string      `json:"rule"`
	Output     LabelReport `json:"output"`
}

// ReconciliationReport is one Figure 10 run at an output interface.
type ReconciliationReport struct {
	Interface string        `json:"interface"`
	Inputs    []LabelReport `json:"inputs"`
	Added     []LabelReport `json:"added,omitempty"`
	Notes     []string      `json:"notes,omitempty"`
	Output    LabelReport   `json:"output"`
}

// ComponentReport is one component's derivation record.
type ComponentReport struct {
	Name         string                 `json:"name"`
	Replicated   bool                   `json:"replicated,omitempty"`
	Coordination string                 `json:"coordination,omitempty"`
	Steps        []StepReport           `json:"steps"`
	Outputs      []ReconciliationReport `json:"outputs"`
}

// StrategyReport is one synthesized coordination strategy in wire form.
type StrategyReport struct {
	Component string `json:"component"`
	// Mechanism is the stable wire token of the delivery mechanism
	// (MechanismToken): "none", "sequencing" (M1), "dynamic-ordering"
	// (M2), "sealing" (M3), "quorum-ordering" (M1q) or "partition-sealing"
	// (M3p).
	Mechanism string `json:"mechanism"`
	// SealKeys maps each gating input stream to its seal key (sealing
	// strategies only).
	SealKeys map[string][]string `json:"sealKeys,omitempty"`
	// Inputs lists the streams routed through the ordering service
	// (sequencing / dynamic-ordering strategies only).
	Inputs []string `json:"inputs,omitempty"`
	Reason string   `json:"reason,omitempty"`
}

// MechanismToken renders a Coordination as the stable wire token used in
// StrategyReport.Mechanism.
func MechanismToken(c Coordination) string { return c.Token() }

// ParseMechanism inverts MechanismToken.
func ParseMechanism(token string) (Coordination, error) {
	c, err := dataflow.ParseToken(token)
	if err != nil {
		return c, fmt.Errorf("blazes: %w", err)
	}
	return c, nil
}

func labelReport(l Label) LabelReport {
	return LabelReport{Kind: l.Kind.String(), Key: attrList(l.Key), Severity: l.Severity()}
}

func attrList(s AttrSet) []string {
	if s.IsEmpty() {
		return nil
	}
	return append([]string(nil), s.Attrs()...)
}

func endpoint(comp, iface string) string {
	if comp == "" {
		return ""
	}
	return comp + "." + iface
}

func strategyReport(st Strategy) StrategyReport {
	sr := StrategyReport{
		Component: st.Component,
		Mechanism: st.Mechanism.Token(),
		Reason:    st.Reason,
	}
	if len(st.SealKeys) > 0 {
		sr.SealKeys = map[string][]string{}
		for stream, key := range st.SealKeys {
			sr.SealKeys[stream] = attrList(key)
		}
	}
	if len(st.Inputs) > 0 {
		sr.Inputs = append([]string(nil), st.Inputs...)
	}
	return sr
}

// Report projects the Result into its stable wire form.
func (r *Result) Report() *Report {
	rep := project(r.analysis, nil, nil)
	rep.Repaired = r.repaired
	for _, st := range r.strategies {
		rep.Strategies = append(rep.Strategies, strategyReport(st))
	}
	return rep
}

// streamReport projects one stream of the analyzed (collapsed) graph.
func streamReport(s *dataflow.Stream, l Label) StreamReport {
	return StreamReport{
		Name:       s.Name,
		From:       endpoint(s.FromComp, s.FromIface),
		To:         endpoint(s.ToComp, s.ToIface),
		Label:      labelReport(l),
		Seal:       attrList(s.Seal),
		Replicated: s.Rep,
	}
}

// coordinationToken is a component's mechanism on the wire: empty when it
// has none.
func coordinationToken(c Coordination) string {
	if c == CoordNone {
		return ""
	}
	return c.Token()
}

// componentReport projects one component's derivation record.
func componentReport(ca dataflow.ComponentAnalysis) ComponentReport {
	comp := ca.Component
	cr := ComponentReport{Name: comp.Name, Replicated: comp.Rep, Coordination: coordinationToken(comp.Coordination)}
	for st := range ca.Steps() {
		cr.Steps = append(cr.Steps, StepReport{
			Input:      labelReport(st.In),
			Annotation: st.Ann.String(),
			Rule:       string(st.Rule),
			Output:     labelReport(st.Out),
		})
	}
	for out := range ca.Outputs() {
		rec := out.Reconciliation
		rr := ReconciliationReport{
			Interface: out.Iface,
			Output:    labelReport(rec.Output),
		}
		for _, l := range rec.Input {
			rr.Inputs = append(rr.Inputs, labelReport(l))
		}
		for _, l := range rec.Added {
			rr.Added = append(rr.Added, labelReport(l))
		}
		if len(rec.Notes) > 0 {
			rr.Notes = append([]string(nil), rec.Notes...)
		}
		cr.Outputs = append(cr.Outputs, rr)
	}
	return cr
}

// MarshalIndent renders the report as indented JSON (the `blazes -json`
// output format).
func (r *Report) MarshalIndent() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// DecodeReport parses a Report from JSON, rejecting unknown schema
// versions and a null entry in streams or components (every reader of a
// report dereferences its entries). Both the current v2 schema and the
// delta-free v1 schema decode; the document keeps the version it was
// written with.
func DecodeReport(data []byte) (*Report, error) {
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("blazes: decoding report: %w", err)
	}
	if rep.Version != ReportVersion && rep.Version != ReportVersionV1 {
		return nil, fmt.Errorf("blazes: unsupported report version %q (want %q or %q)", rep.Version, ReportVersion, ReportVersionV1)
	}
	if i := slices.Index(rep.Streams, nil); i >= 0 {
		return nil, fmt.Errorf("blazes: decoding report: streams[%d] is null", i)
	}
	if i := slices.Index(rep.Components, nil); i >= 0 {
		return nil, fmt.Errorf("blazes: decoding report: components[%d] is null", i)
	}
	return &rep, nil
}

// StreamLabel returns the wire-form label of the named stream, or false
// when the report has no such stream.
func (r *Report) StreamLabel(name string) (LabelReport, bool) {
	for _, s := range r.Streams {
		if s.Name == name {
			return s.Label, true
		}
	}
	return LabelReport{}, false
}

// Strategy returns the strategy for the named component, or false.
func (r *Report) Strategy(component string) (StrategyReport, bool) {
	for _, s := range r.Strategies {
		if s.Component == component {
			return s, true
		}
	}
	return StrategyReport{}, false
}
