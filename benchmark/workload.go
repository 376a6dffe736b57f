package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"blazes/internal/sim"
)

// scale sizes the workloads. Sizes are fixed per scale — never derived from
// the time budget — so that an op is the same work on every run and counts
// made by the program repeat exactly; the budget only decides how many ops
// a run measures.
type scale struct {
	graphN      int      // components of the generated analysis graphs
	serveGraphN int      // components of the generated service specs
	stormWindow sim.Time // virtual measurement window of one timed Fig. 11 cell
	stormTuples int      // tuples per batch per spout instance
	// fig11Window is the window of the full-fidelity Fig. 11 grid a traced run
	// simulates once to check the paper's ratios; 0 skips it.
	fig11Window sim.Time
	sweepSeeds  int // schedules explored per chaos cell
	probeN      int // repetitions of each direct layer probe
	// setupSpend is how long an untraced run keeps repeating a quick set-up
	// (beyond the three every run does) to steady the setup_s median.
	setupSpend time.Duration
}

var (
	fullScale = scale{graphN: 10_000, serveGraphN: 200, stormWindow: 100 * sim.Millisecond, stormTuples: 500,
		fig11Window: 300 * sim.Millisecond, sweepSeeds: 16, probeN: 200, setupSpend: 2 * time.Second}
	smokeScale = scale{graphN: 1000, serveGraphN: 50, stormWindow: 100 * sim.Millisecond, stormTuples: 100,
		sweepSeeds: 4, probeN: 20}
)

// env is what a workload is built from: the seed its inputs derive from, the
// scale, and a scratch directory for anything it writes to disk.
type env struct {
	seed  int64
	scale scale
	tmp   string
}

// workload is one named benchmark workload. The life cycle is setup → run
// (once or more) → verify → close; probe runs in traced runs only.
type workload interface {
	// setup builds the inputs from the seed and runs one warm-up op.
	// Spans of calls made during setup go to rec.
	setup(e env, rec *recorder) error
	// run executes ops for the budget (and at least one full round of the
	// workload's fixed script) and returns the samples.
	run(budget time.Duration, rec *recorder) *result
	// probe calls the layers this workload stands on directly, outside any
	// op, and records per-layer observations.
	probe(rec *recorder) error
	// verify checks the outputs the run left behind; a non-nil error makes
	// the whole benchmark run incorrect.
	verify(rec *recorder) error
	// close releases what setup acquired; calling it twice is harmless.
	close() error
}

type workloadDef struct {
	name string
	// why is the reason the workload exists (one line; BENCHMARK.json
	// carries the same text).
	why string
	// procs is the GOMAXPROCS the workload runs under; 0 keeps the
	// process's. The serial workloads run on one: on two, the collector
	// works on the second processor whenever the machine's other tenants
	// leave it free, and an allocation-heavy op then runs a quarter faster
	// or slower from one minute to the next with nothing in the program
	// changed.
	procs int
	// host is how the workload's timings weigh the host sensors (see meter.go).
	host hostMix
	new  func() workload
}

// pin applies the workload's GOMAXPROCS and returns the call that restores
// the previous value.
func (d workloadDef) pin() (restore func()) {
	if d.procs == 0 {
		return func() {}
	}
	prev := runtime.GOMAXPROCS(d.procs)
	return func() { runtime.GOMAXPROCS(prev) }
}

var workloads = []workloadDef{
	{"analyze-oneshot", "CLI/CI path: spec text to encoded report on 10k-component graphs; parse, one-shot engine and report projection do all the work, the incremental engine none", 1, analyzeMix, func() workload { return &analyzeWorkload{} }},
	{"session-edits", "interactive repair loop on one 10k-component session: label edits and topology edits each followed by Synthesize; the incremental engine does all the work, the one-shot engine none", 1, evenMix, func() workload { return &sessionWorkload{} }},
	{"serve-durable", "request pipeline with the journal on a real disk (fsync on) over loopback TCP, closed loop with one client; service, journal and HTTP do most of the work, dataflow little", 0, serveMix, func() workload { return &serveWorkload{} }},
	{"storm-fig11", "reduced Fig. 11 grid (sealed and transactional wordcount at 5 and 20 workers) on clean links; storm, sim heap and wc bolts do all the work, chaos, bloom and coord none", 1, evenMix, func() workload { return &stormWorkload{} }},
	{"sweep-chaos", "verification pipeline: plan, run, fold, assemble and shrink over the chaos suite under fault plans; bloom, adtrack and coord dominate, and storm runs with duplicate, replay and partition faults", 1, evenMix, func() workload { return &sweepWorkload{} }},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (workloads: %v)", name, names)
}

// result is what one run of a workload measured.
type result struct {
	ops    int // ops completed, of every class
	failed int // ops that failed, were refused, or produced a wrong output
	// firstErr describes the first failure, for the operator.
	firstErr error
	wall     time.Duration
	// busyMs is the host-normalized time the correctly completed ops took in
	// all, measuredMs the same as measured.
	busyMs, measuredMs float64
	// hostSum is, per sensor, the sum over those ops of the sensor's time
	// around the op as a multiple of its reference time; hostN counts the ops.
	hostSum [numSensors]float64
	hostN   int
	// allocBytes is the process's TotalAlloc delta over the run.
	allocBytes uint64
	// primary holds the host-normalized latency in ms of every op of the
	// workload's primary class; samples holds the other classes by name.
	primary []float64
	samples map[string][]float64
	// detail holds, per class, each op's duration as measured
	// ("measured:class") and the host factor it was divided by ("host:class").
	detail map[string][]float64
}

func newResult() *result {
	return &result{samples: map[string][]float64{}, detail: map[string][]float64{}}
}

// add books one normalized latency under its class.
func (r *result) add(class string, ms float64) {
	if class == "" {
		r.primary = append(r.primary, ms)
	} else {
		r.samples[class] = append(r.samples[class], ms)
	}
}

func (r *result) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// opsPerSecond is the run's throughput in normalized time with every op
// class counted at its median latency: the number of correctly completed ops
// over the sum, across the classes the meter booked, of the class's count
// times its median. A closed loop's throughput is the inverse of its
// latencies; taking each class at its median keeps a handful of stalls of the
// host (an fsync of 12 ms among thousands of 0.3) out of the gated number,
// while a class that got slower moves it by its share of the time.
func (r *result) opsPerSecond() float64 {
	var n int
	var ms float64
	for name, measured := range r.detail {
		class, ok := strings.CutPrefix(name, "measured:")
		if !ok {
			continue
		}
		v := r.primary
		if class != "" {
			v = r.samples[class]
		}
		n += len(measured)
		ms += float64(len(measured)) * median(v)
	}
	return float64(n) / (ms / 1e3)
}

// hostNote says, for the operator, how the host compared with the reference
// host over the run.
func (r *result) hostNote() string {
	note := fmt.Sprintf("host: as measured the ops took %.4g times their normalized time (%.4g s of wall time); sensors against the reference:",
		r.measuredMs/r.busyMs, r.wall.Seconds())
	for k, name := range sensorNames {
		if r.hostSum[k] > 0 {
			note += fmt.Sprintf(" %s ×%.3g", name, r.hostSum[k]/float64(r.hostN))
		}
	}
	return note
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// serial runs op(0), op(1), … back to back on the calling goroutine, in
// whole rounds of round ops, until the budget is spent; at least one round
// runs. Stopping only between rounds keeps the mix of op classes the same on
// every run, whatever the budget cut off. op returns the class of the op it
// executed ("" for the primary class); an error counts the op as failed and
// the run goes on, so one failure does not hide the next. The host sensors
// run interleaved with the ops, so the process must be on one processor.
// after, when non-nil, runs after each op outside its timing.
func serial(budget time.Duration, mix hostMix, round int, op func(i int) (class string, err error), after func(i int)) *result {
	res := newResult()
	runtime.GC()
	alloc0 := totalAlloc()
	m, _ := newMeter(res, mix, "") // a serial workload's mix names no disk share, and without a disk sensor there is nothing to fail
	m.interleave()
	start := time.Now()
	for i := 0; i < round || i%round != 0 || time.Since(start) < budget; i++ {
		t0 := time.Now()
		class, err := op(i)
		d := time.Since(t0)
		res.ops++
		if err != nil {
			res.fail(fmt.Errorf("op %d: %w", i, err))
		} else {
			m.record(class, t0, d)
		}
		if after != nil {
			after(i)
		}
	}
	res.wall = time.Since(start)
	res.allocBytes = totalAlloc() - alloc0
	_ = m.finish() // a meter without a disk sensor has nothing to close
	return res
}
