package spec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blazes/internal/core"
	"blazes/internal/dataflow"
)

func readTestdata(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParseWordcountConfig parses the paper's Section VI-A1 file and checks
// the annotations survive intact.
func TestParseWordcountConfig(t *testing.T) {
	cfg, err := Parse(readTestdata(t, "wordcount.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Components) != 3 {
		t.Fatalf("components = %d, want 3", len(cfg.Components))
	}
	count := cfg.Component("Count")
	if count == nil || len(count.Annotations) != 1 {
		t.Fatalf("Count = %+v", count)
	}
	ann := count.Annotations[0]
	if ann.Label != "OW" || strings.Join(ann.Subscript, ",") != "word,batch" {
		t.Errorf("Count annotation = %+v", ann)
	}
	commit := cfg.Component("Commit")
	if commit == nil || len(commit.Annotations) != 1 || commit.Annotations[0].Label != "CW" {
		t.Errorf("Commit = %+v", commit)
	}
	if len(cfg.Streams) != 4 {
		t.Errorf("streams = %d, want 4", len(cfg.Streams))
	}
}

// TestWordcountConfigAnalyzesLikeThePaper: the spec-built graph must derive
// exactly the Section VI-A2 labels, unsealed and sealed.
func TestWordcountConfigAnalyzesLikeThePaper(t *testing.T) {
	cfg, err := Parse(readTestdata(t, "wordcount.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Graph("wordcount", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := dataflow.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Verdict.Equal(core.Run) {
		t.Errorf("unsealed verdict = %s, want Run", a.Verdict)
	}

	// Seal the source on batch and re-analyze.
	g2, err := cfg.Graph("wordcount-sealed", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g2.Stream("tweets").Seal = core.Seal("batch").Key
	a2, err := dataflow.Analyze(g2)
	if err != nil {
		t.Fatal(err)
	}
	if !a2.Verdict.Equal(core.Async) {
		t.Errorf("sealed verdict = %s, want Async", a2.Verdict)
	}
}

// TestParseAdReportConfig parses the Section VI-B1 file: base annotations
// plus the four query variants.
func TestParseAdReportConfig(t *testing.T) {
	cfg, err := Parse(readTestdata(t, "adreport.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	report := cfg.Component("Report")
	if report == nil {
		t.Fatal("Report missing")
	}
	if !report.Rep {
		t.Error("Report must be Rep")
	}
	if len(report.Annotations) != 1 || report.Annotations[0].Label != "CW" {
		t.Errorf("Report base annotations = %+v", report.Annotations)
	}
	wantVariants := []string{"POOR", "THRESH", "WINDOW", "CAMPAIGN"}
	if strings.Join(report.VariantOrder, ",") != strings.Join(wantVariants, ",") {
		t.Errorf("variants = %v, want %v", report.VariantOrder, wantVariants)
	}
	if v := report.Variants["CAMPAIGN"]; strings.Join(v.Subscript, ",") != "id,campaign" {
		t.Errorf("CAMPAIGN subscript = %v", v.Subscript)
	}
	cache := cfg.Component("Cache")
	if cache == nil || len(cache.Annotations) != 3 {
		t.Fatalf("Cache = %+v", cache)
	}
}

// TestAdReportConfigAnalyzesLikeThePaper drives each query variant through
// the analyzer and pins the Section VI-B2 verdicts.
func TestAdReportConfigAnalyzesLikeThePaper(t *testing.T) {
	cfg, err := Parse(readTestdata(t, "adreport.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		query   string
		seal    []string
		verdict core.Label
	}{
		{"THRESH", nil, core.Async},
		{"POOR", nil, core.Diverge},
		{"POOR", []string{"campaign"}, core.Diverge},
		{"CAMPAIGN", []string{"campaign"}, core.Async},
		{"WINDOW", []string{"window"}, core.Async},
	}
	for _, tt := range tests {
		name := tt.query
		if len(tt.seal) > 0 {
			name += "+seal"
		}
		t.Run(name, func(t *testing.T) {
			g, err := cfg.Graph("ad-"+name, BuildOptions{Variants: map[string]string{"Report": tt.query}})
			if err != nil {
				t.Fatal(err)
			}
			if len(tt.seal) > 0 {
				g.Stream("clicks").Seal = core.Seal(tt.seal...).Key
			}
			a, err := dataflow.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Verdict.Equal(tt.verdict) {
				t.Errorf("verdict = %s, want %s", a.Verdict, tt.verdict)
			}
		})
	}
}

func TestGraphUnknownVariant(t *testing.T) {
	cfg, err := Parse(readTestdata(t, "adreport.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = cfg.Graph("x", BuildOptions{Variants: map[string]string{"Report": "NOPE"}})
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("want unknown-variant error, got %v", err)
	}
}

func TestConfigErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"component not map", "C: scalar", "must be a mapping"},
		{"bad rep", "C:\n  Rep: maybe\n  annotation: { from: a, to: b, label: CR }", "boolean"},
		{"missing label", "C:\n  annotation: { from: a, to: b }", "needs from, to and label"},
		{"unknown ann field", "C:\n  annotation: { from: a, to: b, label: CR, nope: x }", "unknown annotation field"},
		{"bad topology section", "topology:\n  widgets:\n    - { name: w, from: A.x }", "unknown topology section"},
		{"source without to", "topology:\n  sources:\n    - { name: s }", "needs `to`"},
		{"subscript not list", "C:\n  annotation: { from: a, to: b, label: OW, subscript: k }", "subscript must be a list"},
		{"subscript bool entry", "C:\n  annotation: { from: a, to: b, label: OW, subscript: [on] }", "subscript entries must be strings"},
		{"subscript nested entry", "C:\n  annotation: { from: a, to: b, label: OW, subscript: [[k]] }", "subscript entries must be strings"},
		{"name read as bool", "topology:\n  sources:\n    - { name: on, to: C.a }", "spec: sources: line 3: name must be a string (quote words like on/yes/no/true)"},
		{"endpoint read as bool", "topology:\n  sinks:\n    - { name: s, from: C.a,\n        to: off }", "spec: sinks: line 3: to must be a string"},
		{"annotation from read as bool", "C:\n  annotation: { from: yes, to: b, label: CR }", `spec: component "C": line 2: from must be a string (quote words like on/yes/no/true)`},
		{"annotation label read as bool", "C:\n  annotation:\n    from: a\n    to: b\n    label: no", `spec: component "C": line 5: label must be a string`},
		{"name nested", "topology:\n  sources:\n    - { name: [s], to: C.a }", "name must be a string"},
		{"name read as bool then replaced", "topology:\n  sources:\n    - { name: on, to: C.a, name: s }", `unknown consumer component "C"`}, // the last value of a flow key wins
		{"seal not list", "topology:\n  sources:\n    - { name: s, to: C.a, seal: k }", "seal must be a list"},
		{"seal bool entry", "topology:\n  sources:\n    - { name: clicks, to: C.a, seal: [on] }", `stream "clicks": seal entries must be strings`},
		{"seal bool entry before name", "topology:\n  streams:\n    - { seal: [k, yes], name: mid, from: C.b, to: D.a }", `stream "mid": seal entries must be strings`},
		{"seal nested entry", "topology:\n  sinks:\n    - { name: out, from: C.b, seal: [[k]] }", `stream "out": seal entries must be strings`},
		{"seal quoted word", "topology:\n  sources:\n    - { name: s, to: C.a, seal: ['on'] }", `unknown consumer component "C"`}, // parses; fails only at the graph
		{"bad endpoint", "C:\n  annotation: { from: a, to: b, label: CR }\ntopology:\n  sources:\n    - { name: s, to: noDot }", "Component.iface"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg, err := parseBoth(t, tt.src)
			if err == nil {
				_, err = cfg.Graph("g", BuildOptions{})
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tt.wantSub)
			}
		})
	}
}

func TestStreamSealAndRepFromSpec(t *testing.T) {
	src := `A:
  annotation: { from: in, to: out, label: CW }
topology:
  sources:
    - { name: src, to: A.in, seal: [campaign], rep: true }
  sinks:
    - { name: snk, from: A.out }
`
	cfg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Graph("g", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := g.Stream("src")
	if s.Seal.String() != "campaign" {
		t.Errorf("seal = %v", s.Seal)
	}
	if !s.Rep {
		t.Error("rep flag lost")
	}
}

func TestComponentSchemaFromSpec(t *testing.T) {
	src := `A:
  annotation: { from: in, to: out, label: CR }
  schema: { out: [word, batch] }
topology:
  sources:
    - { name: src, to: A.in }
  sinks:
    - { name: snk, from: A.out }
`
	cfg, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Graph("g", BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	schema, ok := g.Lookup("A").OutSchema["out"]
	if !ok || schema.String() != "batch,word" {
		t.Errorf("OutSchema[out] = %v (ok=%v), want batch,word", schema, ok)
	}
}

func TestSchemaErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"schema not map", "A:\n  annotation: { from: a, to: b, label: CR }\n  schema: scalar", "must be a mapping"},
		{"attrs not list", "A:\n  annotation: { from: a, to: b, label: CR }\n  schema: { b: scalar }", "must be a list"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseBoth(t, tt.src)
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tt.wantSub)
			}
		})
	}
}
