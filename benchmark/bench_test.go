package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"blazes"
	"blazes/topogen"
)

func TestPercentile(t *testing.T) {
	v := []float64{40, 10, 30, 20}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

// TestTailRule pins "the highest percentile that has at least ten samples
// beyond it".
func TestTailRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
		ok    bool
	}{{13, 0, false}, {99, 0, false}, {100, 0.90, true}, {199, 0.90, true}, {200, 0.95, true}, {999, 0.95, true}, {1000, 0.99, true}, {10000, 0.999, true}} {
		level, ok := tailPercentile(c.n)
		if level != c.level || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, level, ok, c.level, c.ok)
		}
	}
}

// TestQuartilesMatchPython holds quartiles to the values Python's
// statistics.quantiles(values, n=4) returns, since the benchmark's
// acceptance rule is written against that function.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		values []float64
		want   [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, [3]float64{1.25, 3.5, 5.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
	} {
		q1, q2, q3 := quartiles(c.values)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.values, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1 (5.5 between the quartiles over a median of 5.5)", got)
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children's intervals, clipped to its own.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0}, // overlaps a
		{Name: "c", Start: 60, End: 70, Parent: 0},
		{Name: "d", Start: 90, End: 120, Parent: 0}, // runs past its parent
		{Name: "a1", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - (40 + 10 + 10), 20 - 6, 30, 10, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestMeterNormalizes: an op's own time is its wall time less the sensor
// readings inside it; its host factor is the mean, over the readings from
// the last before it to the first after it, of the two processor sensors
// against their reference times, with the disk sensor mixed in by the
// class's disk share.
func TestMeterNormalizes(t *testing.T) {
	ms := func(x float64) time.Duration { return time.Duration(x * 1e6) }
	reading := func(at, ilp, mp, disk float64) hostSample {
		return hostSample{start: ms(at), end: ms(at + 1),
			ms: [numSensors]float64{ilp * sensorRefMs[sensorILP], mp * sensorRefMs[sensorMap], disk * sensorRefMs[sensorDisk]}}
	}
	res := newResult()
	m := &meter{res: res, mix: hostMix{ilp: 0.5, disk: diskShare{"write": 0.5}}, t0: time.Now(), done: make(chan struct{})}
	close(m.done)
	m.samples = []hostSample{
		reading(0, 9, 9, 9), // not adjacent to any op
		reading(10, 1, 1, 1),
		reading(30, 2, 4, 7), // inside the first op
		reading(50, 3, 1, 1),
		reading(90, 9, 9, 9),
	}
	m.ops = []meteredOp{
		{"", ms(20), ms(45)},      // readings at 10, 30, 50: processor factor (1+3+2)/3 = 2
		{"write", ms(52), ms(62)}, // readings at 50, 90: processor 5.5, disk 5
	}
	if err := m.finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := res.primary, []float64{(25 - 1) / 2.0}; !reflect.DeepEqual(got, want) {
		t.Errorf("primary = %v, want %v", got, want)
	}
	if got, want := res.samples["write"], []float64{10 / (0.5*5.5 + 0.5*5)}; len(got) != 1 || math.Abs(got[0]-want[0]) > 1e-9 {
		t.Errorf("write = %v, want %v", got, want)
	}
	if got := res.detail["measured:"]; !reflect.DeepEqual(got, []float64{24}) {
		t.Errorf("measured = %v, want [24]", got)
	}
}

// TestOpsPerSecond: every class counts at its median, so one stall does not
// move the throughput and a slower class moves it by its share.
func TestOpsPerSecond(t *testing.T) {
	res := newResult()
	res.primary = []float64{10, 10, 10, 10000}
	res.samples["rebuild"] = []float64{100}
	res.detail["measured:"] = make([]float64, 4)
	res.detail["measured:rebuild"] = make([]float64, 1)
	if got, want := res.opsPerSecond(), 5/((4*10+100)/1e3); math.Abs(got-want) > 1e-9 {
		t.Errorf("opsPerSecond = %v, want %v", got, want)
	}
}

func TestRecorderNilIsUntraced(t *testing.T) {
	var rec *recorder
	ran := false
	rec.span("x", -1, 0, func() { ran = true })
	rec.observe("m", 1)
	rec.end(rec.begin("y", -1, 0))
	if !ran {
		t.Error("a nil recorder must still run the spanned call")
	}
}

func TestEditScriptDeterminism(t *testing.T) {
	res, err := topogen.Generate(topogen.Default(400, 3))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := blazes.ParseSpec(res.Spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sp.Graph("script")
	if err != nil {
		t.Fatal(err)
	}
	a := newEditScript(g, 8).render(10 * editPeriod)
	b := newEditScript(g, 8).render(10 * editPeriod)
	c := newEditScript(g, 9).render(10 * editPeriod)
	if a != b {
		t.Error("the same seed produced two different edit scripts")
	}
	if a == c {
		t.Error("different seeds produced the same edit script")
	}
	for _, kind := range []string{"annotate ", "seal ", "connect ", "remove "} {
		if !strings.Contains(a, kind) {
			t.Errorf("script has no %q edit:\n%s", kind, a)
		}
	}
	if n := strings.Count(a, "connect ") + strings.Count(a, "remove "); n != 10 {
		t.Errorf("%d topology edits in 10 periods, want 10", n)
	}
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestManifestMatchesCatalog holds BENCHMARK.json and the program's own
// lists of workloads and metrics together, and both to the limits the
// manifest format sets.
func TestManifestMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Command, []string{"go", "run", "./benchmark"}) || !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("command %v, paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(m.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: manifest %q (%q), program %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if !name.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("workload %q breaks the manifest's limits", w.Name)
		}
		seen[w.Name] = true
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEndMetrics) {
		t.Errorf("end_to_end differs:\nmanifest %v\nprogram  %v", m.EndToEnd, endToEndMetrics)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayerMetrics) {
		t.Errorf("per_layer differs from the program's list")
	}
	if len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(m.EndToEnd), len(m.PerLayer))
	}
	for _, s := range append(append([]metricSpec{}, m.EndToEnd...), m.PerLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") || seen[s.Name] {
			t.Errorf("metric %+v breaks the manifest's limits", s)
		}
		seen[s.Name] = true
	}
	for _, s := range m.EndToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
	}
}

func smokeOptions(t *testing.T, workload string, trace int) options {
	return options{workload: workload, seed: 8, seconds: 0, trace: trace, smoke: true, tmp: t.TempDir()}
}

// TestSmokeUntraced runs the gated, untraced path on one workload at smoke
// scale: every end-to-end metric is reported, non-zero, and the result line
// has exactly the keys the contract names.
func TestSmokeUntraced(t *testing.T) {
	def, err := lookupWorkload("serve-durable")
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t, def.name, 0)
	o.out = t.TempDir()
	var stderr bytes.Buffer
	rep, err := measure(def, o, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < serveRound*len(sessionScript) {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	for _, s := range endToEndMetrics {
		if v := rep.Metrics[s.Name]; !(v.Value > 0) || v.Unit != s.Unit {
			t.Errorf("%s = %+v", s.Name, v)
		}
	}
	var out bytes.Buffer
	if err := rep.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("result line has keys %v", line)
	}
	var sets sampleSets
	data, err := os.ReadFile(filepath.Join(o.out, "samples.json"))
	if err != nil || json.Unmarshal(data, &sets) != nil || len(sets[def.name]["op_ms"]) == 0 || len(sets[def.name]["setup_s"]) < setupRepeats {
		t.Errorf("samples.json: %v, %d op samples", err, len(sets[def.name]["op_ms"]))
	}
}

// TestSmokeTraced is one traced run at smoke scale. A traced run drives all
// five workloads, their layer probes and their correctness gates, so this is
// also the tier-1 coverage of each of them.
func TestSmokeTraced(t *testing.T) {
	def, err := lookupWorkload("analyze-oneshot")
	if err != nil {
		t.Fatal(err)
	}
	o := smokeOptions(t, def.name, 1)
	o.out = t.TempDir()
	var stderr bytes.Buffer
	rep, err := measure(def, o, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Errorf("correct=%v failed=%d\n%s", rep.Correct, rep.Failed, stderr.String())
	}
	for _, s := range perLayerMetrics {
		v, ok := rep.Metrics[s.Name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Unit != s.Unit {
			t.Errorf("%s = %+v (reported: %v)", s.Name, v, ok)
		}
	}
	if got := rep.Metrics["service.shed"].Value; got != 0 {
		t.Errorf("service.shed = %v", got)
	}
	if seq, quorum := rep.Metrics["coord.sequencer_messages"].Value, rep.Metrics["coord.quorum_messages"].Value; quorum >= seq {
		t.Errorf("quorum ordering sent %v coordination messages, the sequencer %v", quorum, seq)
	}

	var trace struct {
		Spans []struct {
			span
			Self int64 `json:"self_ns"`
		} `json:"spans"`
	}
	data, err := os.ReadFile(filepath.Join(o.out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	// On the analysis pipeline the spans around the layer calls must account
	// for at least nine tenths of the op.
	var ops, self int64
	for _, s := range trace.Spans {
		if s.Name == "analyze.op" {
			ops += s.End - s.Start
			self += s.Self
		}
	}
	if ops == 0 || float64(self) > 0.1*float64(ops) {
		t.Errorf("analyze.op: %d ns in all, %d ns not covered by layer spans", ops, self)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"-workload", "nope"}, {"-trace", "2"}, {"extra"}, {"-seconds", "x"}} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2 (stderr: %s)", args, code, errOut.String())
		}
	}
}
