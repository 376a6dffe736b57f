package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"time"

	"blazes"
	"blazes/internal/dataflow"
	"blazes/topogen"
)

//go:embed testdata
var testdata embed.FS

func mustReadTestdata(name string) string {
	data, err := testdata.ReadFile("testdata/" + name)
	if err != nil {
		panic(err) // the file is compiled in; only a broken build can miss it
	}
	return string(data)
}

// analyzeGraphs is the number of distinct generated graphs the workload
// cycles through; one pass over them is its minimum run.
const analyzeGraphs = 3

// analyzeWorkload is the one-shot path of `blazes spec.blazes -json`: each
// op takes spec text to the encoded report of one generated graph.
type analyzeWorkload struct {
	e      env
	inputs []analyzeInput
}

type analyzeInput struct {
	name string
	text string
	// reportHash is the hash of the first report encoded for this graph;
	// every later pass must produce the same bytes.
	reportHash uint64
	components int
}

func (w *analyzeWorkload) setup(e env, rec *recorder) error {
	w.e = e
	for i := 0; i < analyzeGraphs; i++ {
		var res topogen.Result
		var err error
		rec.span("topogen.generate", -1, -1, func() {
			res, err = topogen.Generate(topogen.Default(e.scale.graphN, e.seed+int64(i)))
		})
		if err != nil {
			return err
		}
		rec.observe("topogen.spec_mb", float64(len(res.Spec))/1e6)
		w.inputs = append(w.inputs, analyzeInput{
			name: fmt.Sprintf("gen-%d-s%d", e.scale.graphN, e.seed+int64(i)),
			text: res.Spec, components: res.Stats.Components,
		})
	}
	return w.op(0, nil)
}

// op runs the whole pipeline on input i mod analyzeGraphs.
func (w *analyzeWorkload) op(i int, rec *recorder) error {
	in := &w.inputs[i%len(w.inputs)]
	var (
		err   error
		sp    *blazes.Spec
		g     *blazes.Graph
		res   *blazes.Result
		diags []blazes.LintDiagnostic
		rep   *blazes.Report
		out   []byte
	)
	root := rec.begin("analyze.op", -1, i)
	defer rec.end(root)
	begin := time.Now()
	rec.span("spec.parse", root, i, func() { sp, err = blazes.ParseSpec(in.text) })
	parseSeconds := time.Since(begin).Seconds()
	if err != nil {
		return err
	}
	rec.span("spec.graph", root, i, func() { g, err = sp.Graph(in.name) })
	if err != nil {
		return err
	}
	rec.span("blazes.synthesize", root, i, func() { res, err = blazes.NewAnalyzer().Synthesize(g) })
	if err != nil {
		return err
	}
	rec.span("dataflow.lint", root, i, func() { diags = blazes.Lint(g) })
	rec.span("blazes.report_project", root, i, func() { rep = res.Report() })
	rec.span("blazes.report_encode", root, i, func() { out, err = rep.MarshalIndent() })
	if err != nil {
		return err
	}
	rec.observe("spec.parse_mb_per_s", float64(len(in.text))/1e6/parseSeconds)
	rec.observe("dataflow.lint_findings", float64(len(diags)))
	rec.observe("blazes.report_mb", float64(len(out))/1e6)

	if blazes.HasLintErrors(diags) {
		return fmt.Errorf("%s: generated graph has lint errors", in.name)
	}
	h := fnv.New64a()
	h.Write(out)
	switch {
	case in.reportHash == 0:
		in.reportHash = h.Sum64()
	case in.reportHash != h.Sum64():
		return fmt.Errorf("%s: report bytes differ from the first pass", in.name)
	}
	return nil
}

func (w *analyzeWorkload) run(budget time.Duration, rec *recorder) *result {
	return serial(budget, analyzeMix, analyzeGraphs, func(i int) (string, error) { return "", w.op(i, rec) }, nil)
}

// probe splits blazes.synthesize into the two dataflow calls behind it, with
// their allocation counts, on each of the workload's graphs.
func (w *analyzeWorkload) probe(rec *recorder) error {
	for _, in := range w.inputs {
		sp, err := blazes.ParseSpec(in.text)
		if err != nil {
			return err
		}
		g, err := sp.Graph(in.name)
		if err != nil {
			return err
		}
		var an *dataflow.Analysis
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		rec.span("dataflow.analyze", -1, -1, func() { an, err = dataflow.Analyze(g) })
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		rec.observe("dataflow.analyze_alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
		rec.observe("dataflow.analyze_allocs_per_component", float64(after.Mallocs-before.Mallocs)/float64(in.components))
		rec.span("dataflow.synthesize", -1, -1, func() { dataflow.Synthesize(an, dataflow.SynthesisOptions{}) })
	}
	return nil
}

// expectedCase is one entry of testdata/expected.json.
type expectedCase struct {
	Name          string              `json:"name"`
	Spec          string              `json:"spec"`
	Variants      map[string]string   `json:"variants"`
	Seals         map[string][]string `json:"seals"`
	Verdict       string              `json:"verdict"`
	Deterministic bool                `json:"deterministic"`
	Strategies    []string            `json:"strategies"`
}

// verify holds the analyzer to the hand-written verdicts and strategies of
// the paper's five case-study dataflows: timing an analyzer that has
// started to answer wrongly is worthless.
func (w *analyzeWorkload) verify(*recorder) error {
	var doc struct {
		Cases []expectedCase `json:"cases"`
	}
	if err := json.Unmarshal([]byte(mustReadTestdata("expected.json")), &doc); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	for _, c := range doc.Cases {
		sp, err := blazes.ParseSpec(mustReadTestdata(c.Spec))
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		g, err := sp.Graph(c.Name, blazes.WithVariants(c.Variants))
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		var opts []blazes.Option
		for stream, key := range c.Seals {
			opts = append(opts, blazes.WithSealRepair(stream, key...))
		}
		res, err := blazes.NewAnalyzer(opts...).Synthesize(g)
		if err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		rep := res.Report()
		got := []string{}
		for _, st := range rep.Strategies {
			got = append(got, st.Component+":"+st.Mechanism)
		}
		sort.Strings(got)
		want := append([]string{}, c.Strategies...)
		sort.Strings(want)
		if rep.Verdict.Kind != c.Verdict || rep.Deterministic != c.Deterministic || !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: got verdict %s deterministic %v strategies %v, want %s %v %v",
				c.Name, rep.Verdict.Kind, rep.Deterministic, got, c.Verdict, c.Deterministic, want)
		}
	}
	return nil
}

func (w *analyzeWorkload) close() error { return nil }
