package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// recorder collects exact per-endpoint latency samples of the 2xx replies
// (a burst is at most a few hundred thousand requests, so sorting beats
// histogram buckets for percentile fidelity) plus status-code and
// transport-error tallies of every request.
type recorder struct {
	mu      sync.Mutex
	samples map[string][]time.Duration
	codes   map[string]map[int]int
	errs    map[string]int
	wall    time.Duration
}

func newRecorder() *recorder {
	return &recorder{
		samples: map[string][]time.Duration{},
		codes:   map[string]map[int]int{},
		errs:    map[string]int{},
	}
}

// observe tallies one response. Only a 2xx reply is a latency sample: a
// 429 or 503 returns in microseconds, so counting sheds would pull the
// percentiles down exactly when the server is overloaded.
func (r *recorder) observe(endpoint string, code int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if code >= 200 && code < 300 {
		r.samples[endpoint] = append(r.samples[endpoint], d)
	}
	if r.codes[endpoint] == nil {
		r.codes[endpoint] = map[int]int{}
	}
	r.codes[endpoint][code]++
}

func (r *recorder) transportError(endpoint string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.errs[endpoint]++
}

// requests counts the responses received, whatever their status.
func (r *recorder) requests() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, byCode := range r.codes {
		for _, c := range byCode {
			n += c
		}
	}
	return n
}

func (r *recorder) errorCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.errs {
		n += c
	}
	return n
}

// shedCount counts 429 and 503 responses — requests the server refused by
// design rather than failed.
func (r *recorder) shedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, byCode := range r.codes {
		n += byCode[429] + byCode[503]
	}
	return n
}

// Percentiles is one endpoint's latency summary, microsecond units.
type Percentiles struct {
	Count  int    `json:"count"`
	MeanUs uint64 `json:"mean_us"`
	P50Us  uint64 `json:"p50_us"`
	P95Us  uint64 `json:"p95_us"`
	P99Us  uint64 `json:"p99_us"`
	MaxUs  uint64 `json:"max_us"`
}

func percentiles(samples []time.Duration) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, k int) bool { return sorted[i] < sorted[k] })
	at := func(q float64) uint64 {
		i := int(q * float64(len(sorted)-1))
		return uint64(sorted[i].Microseconds())
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	return Percentiles{
		Count:  len(sorted),
		MeanUs: uint64((sum / time.Duration(len(sorted))).Microseconds()),
		P50Us:  at(0.50),
		P95Us:  at(0.95),
		P99Us:  at(0.99),
		MaxUs:  uint64(sorted[len(sorted)-1].Microseconds()),
	}
}

// Report is the loadgen output document. Latency summarizes the 2xx
// replies of each endpoint; Status tallies every reply by endpoint and
// status code, sheds included.
type Report struct {
	Meta    map[string]any         `json:"meta"`
	Totals  Totals                 `json:"totals"`
	Latency map[string]Percentiles `json:"latency"`
	Status  map[string]map[int]int `json:"status"`
}

// Totals aggregates the burst.
type Totals struct {
	Sessions      int     `json:"sessions"`
	Requests      int     `json:"requests"`
	Shed          int     `json:"shed"`
	Errors        int     `json:"errors"`
	DurationSec   float64 `json:"duration_sec"`
	ThroughputRPS float64 `json:"throughput_rps"`
}

// report summarizes a finished burst; nothing records while it runs.
func (r *recorder) report(cfg config) Report {
	total := r.requests()
	lat := map[string]Percentiles{}
	for ep, s := range r.samples {
		lat[ep] = percentiles(s)
	}
	wall := r.wall.Seconds()
	rps := 0.0
	if wall > 0 {
		rps = float64(total) / wall
	}
	return Report{
		Meta: map[string]any{
			"generated_by": "cmd/loadgen",
			"go":           runtime.Version(),
			"date":         time.Now().UTC().Format(time.RFC3339),
			"sessions":     cfg.sessions,
			"rate":         cfg.rate,
			"mutations":    cfg.mutations,
			"seed":         cfg.seed,
		},
		Totals: Totals{
			Sessions:      cfg.sessions,
			Requests:      total,
			Shed:          r.shedCount(),
			Errors:        r.errorCount(),
			DurationSec:   wall,
			ThroughputRPS: rps,
		},
		Latency: lat,
		Status:  r.codes,
	}
}
