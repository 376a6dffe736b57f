// Command benchmark is the repository's performance instrument: five named
// workloads over the three pipelines the roadmap names (analysis, a service
// request, a verification sweep) and the simulated Storm substrate, gated
// end-to-end metrics measured with tracing off, and a traced run that
// records a span around every call the harness makes into a layer and
// yields the per-layer numbers. BENCHMARK.json at the repository root names
// the workloads and metrics; README.md in this directory explains them.
//
//	go run ./benchmark                         every workload, untraced
//	go run ./benchmark -workload storm-fig11   one workload
//	go run ./benchmark -trace 1 -out benchmark/out
//	go run ./benchmark -repeat 10              spread of every gated metric
//	go run ./benchmark -smoke                  seconds-long scale, as the tests run it
//
// Each workload's run ends with one JSON line on standard output:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// The exit code is 1 when any output was wrong, 2 on a usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	out      string
	repeat   int
	smoke    bool
	tmp      string
}

func (o options) scale() scale {
	if o.smoke {
		return smokeScale
	}
	return fullScale
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in turn)")
	fs.Int64Var(&o.seed, "seed", 8, "seed every generated input derives from")
	fs.IntVar(&o.seconds, "seconds", 16, "seconds one run measures")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.out, "out", "", "directory to write samples.json and trace.json into")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload untraced N times, each with another seed, and report the spread of each end-to-end metric against its bound")
	fs.BoolVar(&o.smoke, "smoke", false, "seconds-long scale (1k graphs, few seeds); numbers are not comparable to a full run")
	fs.StringVar(&o.tmp, "tmp", filepath.Join("benchmark", ".tmp"), "scratch directory for journals")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || o.seconds < 0 || (o.trace != 0 && o.trace != 1) || o.repeat < 0 {
		fmt.Fprintln(stderr, "benchmark: usage: benchmark [-workload name] [-seed n] [-seconds n] [-trace 0|1] [-out dir] [-repeat n] [-smoke]")
		return 2
	}
	defs := workloads
	if o.workload != "" {
		def, err := lookupWorkload(o.workload)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 2
		}
		defs = []workloadDef{def}
	}
	if o.repeat > 0 {
		return repeat(o, defs, stdout, stderr)
	}
	code := 0
	for _, def := range defs {
		rep, err := measure(def, o, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if err := rep.print(stdout); err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
			return 1
		}
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// metricValue is one reported metric in the result line's wire form.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one run of one workload; its JSON form is the
// result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	workload string
	specs    []metricSpec
	notes    []string
}

// print writes every metric by name with its unit, then the result line.
func (r *report) print(w io.Writer) error {
	fmt.Fprintf(w, "workload %s\n", r.workload)
	for _, s := range r.specs {
		fmt.Fprintf(w, "  %-44s %14.6g %s\n", s.Name, r.Metrics[s.Name].Value, s.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
	line, err := json.Marshal(r)
	if err != nil { // a metric that is not a finite number
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// An untraced run sets its workload up at least setupRepeats times, and goes
// on (to at most setupRepeatsMax) until the set-ups took the scale's
// setupSpend in all: the reported setup_s is their median, which for a
// set-up of milliseconds needs more than three goes to be steady.
const (
	setupRepeats    = 3
	setupRepeatsMax = 100
)

// measure runs one workload once, untraced or traced as o.trace says.
func measure(def workloadDef, o options, stderr io.Writer) (*report, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.tmp, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := env{seed: o.seed, scale: o.scale(), tmp: tmp}
	budget := time.Duration(o.seconds) * time.Second

	rep := &report{workload: def.name, Metrics: map[string]metricValue{}}
	sets := sampleSets{}
	var rec *recorder
	if o.trace == 0 {
		rep.specs = endToEndMetrics
		err = measureUntraced(def, e, budget, rep, sets)
	} else {
		rep.specs = perLayerMetrics
		rec = newRecorder()
		err = measureTraced(def, e, budget, rep, sets, rec)
	}
	if err != nil {
		return nil, err
	}
	if o.out != "" {
		if err := writeArtifacts(o.out, def.name, sets, rec); err != nil {
			return nil, err
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", def.name, n)
	}
	return rep, nil
}

// sampleSets is every raw sample a run took, by workload and sample name —
// the content of samples.json.
type sampleSets map[string]map[string][]float64

func (s sampleSets) add(workload string, res *result, setups []float64) {
	m := map[string][]float64{"op_ms": res.primary}
	for class, v := range res.samples {
		m[class+"_ms"] = v
	}
	for name, v := range res.detail {
		m[name] = v
	}
	if setups != nil {
		m["setup_s"] = setups
	}
	s[workload] = m
}

// account folds one run's counts into the report.
func (r *report) account(res *result, verifyErr error) {
	r.Attempted += res.ops
	r.Failed += res.failed
	if res.firstErr != nil {
		r.notes = append(r.notes, "first failure: "+res.firstErr.Error())
	}
	if verifyErr != nil {
		r.notes = append(r.notes, "verification failed: "+verifyErr.Error())
	}
	r.Correct = r.Correct && res.failed == 0 && verifyErr == nil
}

func measureUntraced(def workloadDef, e env, budget time.Duration, rep *report, sets sampleSets) error {
	defer def.pin()()
	var w workload
	defer func() {
		if w != nil {
			w.close() // an error path; the success path below has checked close already
		}
	}()
	var setups []float64
	var spent time.Duration
	for i := 0; i < setupRepeats || (spent < e.scale.setupSpend && i < setupRepeatsMax); i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return err
			}
		}
		runtime.GC()
		w = def.new()
		start := time.Now()
		s, err := normalized(def, e, func() error { return w.setup(e, nil) })
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		spent += time.Since(start)
		setups = append(setups, s)
	}
	res := w.run(budget, nil)
	verifyErr := w.verify(nil)
	if err := w.close(); err != nil {
		return err
	}
	rep.Correct = true
	rep.account(res, verifyErr)
	sets.add(def.name, res, setups)

	rep.Metrics["setup_s"] = metricValue{median(setups), "s"}
	rep.Metrics["op_p50_ms"] = metricValue{median(res.primary), "ms"}
	rep.Metrics["ops_per_s"] = metricValue{res.opsPerSecond(), "1/s"}
	rep.Metrics["alloc_mb_per_op"] = metricValue{float64(res.allocBytes) / 1e6 / float64(res.ops), "MB"}
	rep.notes = append(rep.notes, res.hostNote())
	if level, ok := tailPercentile(len(res.primary)); ok {
		rep.notes = append(rep.notes, fmt.Sprintf("op p%g = %.4g ms (n=%d, ungated)", level*100, percentile(res.primary, level), len(res.primary)))
	} else {
		rep.notes = append(rep.notes, fmt.Sprintf("n=%d primary ops: too few for a tail percentile", len(res.primary)))
	}
	return nil
}

// measureTraced runs every workload under spans — the named one for the
// budget (a quarter of it untraced first, to price the tracing), the others
// for their minimum round — then each workload's direct layer probes, so
// that one traced run measures every layer whichever workload it names.
func measureTraced(def workloadDef, e env, budget time.Duration, rep *report, sets sampleSets, rec *recorder) error {
	rep.Correct = true
	calibBefore := calibrate()
	for _, d := range workloads {
		res, verifyErr, err := traceWorkload(d, d.name == def.name, e, budget, rep, rec)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		rep.account(res, verifyErr)
		sets.add(d.name, res, nil)
	}
	if err := probeHost(e, rec); err != nil {
		return err
	}
	calibAfter := calibrate()
	rec.observe("host.calibration_ms", calibBefore)
	rec.observe("host.calibration_ms", calibAfter)
	if drift := calibAfter/calibBefore - 1; drift > 0.05 || drift < -0.05 {
		rep.notes = append(rep.notes, fmt.Sprintf("noisy: host calibration drifted %.1f%% within the run", drift*100))
	}
	return layerMetrics(rec, rep)
}

// traceWorkload is one workload's part of a traced run: set-up, the run under
// spans (for the named workload after an untraced stretch), the probes and
// the verification.
func traceWorkload(d workloadDef, named bool, e env, budget time.Duration, rep *report, rec *recorder) (res *result, verifyErr, err error) {
	defer d.pin()()
	w := d.new()
	defer w.close() // an error path; the success path below has checked close already
	if err := w.setup(e, rec); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	if !named {
		res = w.run(0, rec)
	} else {
		untraced := w.run(budget/4, nil)
		rep.account(untraced, nil)
		res = w.run(budget-budget/4, rec)
		rec.observe("trace.op_p50_ms", median(res.primary))
		rec.observe("trace.overhead_share", median(res.primary)/median(untraced.primary)-1)
	}
	if err := w.probe(rec); err != nil {
		return nil, nil, fmt.Errorf("probe: %w", err)
	}
	verifyErr = w.verify(rec)
	return res, verifyErr, w.close()
}
