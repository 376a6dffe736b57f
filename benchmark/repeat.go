package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// metricSummary is one end-to-end metric's values over the repeated runs of
// one workload, as the baseline file records it.
type metricSummary struct {
	Unit   string    `json:"unit"`
	N      int       `json:"n"`
	Min    float64   `json:"min"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Max    float64   `json:"max"`
	Spread float64   `json:"spread"`
	Bound  float64   `json:"bound"`
	Values []float64 `json:"values"`
}

// repeat is the self-check mode: it runs every workload untraced o.repeat
// times, each run a fresh process with another seed — what the acceptance
// of the benchmark does — and reports each end-to-end metric's quartiles and
// whether the spread between them, as a share of the median, fits the
// metric's bound. The fixed calibration work runs before and after every
// run; a run it drifted across by more than 5% is marked noisy in the
// output. (It does not fail the check: the timings are host-normalized, and
// on a shared host hardly a run would pass.)
func repeat(o options, defs []workloadDef, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	baseline := map[string]map[string]metricSummary{}
	for _, def := range defs {
		values := map[string][]float64{}
		for k := 0; k < o.repeat; k++ {
			args := []string{"-workload", def.name, "-seed", strconv.FormatInt(o.seed+int64(k), 10),
				"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-tmp", o.tmp}
			if o.smoke {
				args = append(args, "-smoke")
			}
			before := calibrate()
			var out bytes.Buffer
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = &out, stderr
			runErr := cmd.Run()
			after := calibrate()
			var rep report
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil || runErr != nil || !rep.Correct {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: run failed (%v)\n", def.name, o.seed+int64(k), runErr)
				code = 1
				continue
			}
			if drift := after/before - 1; drift > 0.05 || drift < -0.05 {
				fmt.Fprintf(stdout, "%s seed %d: noisy — host calibration went %.1f ms → %.1f ms across the run\n", def.name, o.seed+int64(k), before, after)
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		fmt.Fprintf(stdout, "workload %s, %d runs of %d s\n", def.name, o.repeat, o.seconds)
		fmt.Fprintf(stdout, "  %-18s %12s %12s %12s %12s %12s %8s %6s\n", "metric", "min", "q1", "median", "q3", "max", "spread", "bound")
		baseline[def.name] = map[string]metricSummary{}
		for _, s := range endToEndMetrics {
			v := values[s.Name]
			if len(v) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			sum := metricSummary{Unit: s.Unit, N: len(v), Min: percentile(v, 0), Q1: q1, Median: q2, Q3: q3,
				Max: percentile(v, 1), Spread: spread(v), Bound: s.Bound, Values: v}
			baseline[def.name][s.Name] = sum
			verdict := "steady"
			switch {
			case sum.Spread > s.Bound && s.Name != "setup_s":
				verdict = "OVER BOUND"
				code = 1
			case sum.Spread > s.Bound/3:
				verdict = "wide"
			}
			fmt.Fprintf(stdout, "  %-18s %12.6g %12.6g %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
				s.Name, sum.Min, q1, q2, q3, sum.Max, sum.Spread*100, s.Bound*100, verdict)
		}
	}
	if o.out != "" {
		err := os.MkdirAll(o.out, 0o755)
		if err == nil {
			err = writeJSON(filepath.Join(o.out, "baseline.json"), map[string]any{
				"go": runtime.Version(), "goos": runtime.GOOS, "goarch": runtime.GOARCH,
				"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
				"calibration_ms": calibrate(), "run_seconds": o.seconds, "first_seed": o.seed,
				"workloads": baseline,
			})
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	return code
}
