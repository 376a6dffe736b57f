package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blazes/internal/hist"
)

// recorder times the 2xx replies per endpoint, in the histogram
// `/v1/stats` uses, and tallies every request by status code and transport
// error.
type recorder struct {
	mu    sync.Mutex
	lat   map[string]*hist.Histogram
	codes map[string]map[int]int
	errs  map[string]int
	wall  time.Duration
	// writes counts acknowledged journaled writes (creates and mutates);
	// onWrite, when set, is called with each new count.
	writes  atomic.Int64
	onWrite func(n int64)
}

// wrote counts one acknowledged journaled write.
func (r *recorder) wrote() {
	n := r.writes.Add(1)
	if r.onWrite != nil {
		r.onWrite(n)
	}
}

func newRecorder() *recorder {
	return &recorder{
		lat:   map[string]*hist.Histogram{},
		codes: map[string]map[int]int{},
		errs:  map[string]int{},
	}
}

// observe tallies one response. Only a 2xx reply is a latency sample, as on
// the server: a 429 or 503 returns in microseconds, so counting sheds would
// pull the percentiles down exactly when the server is overloaded.
func (r *recorder) observe(endpoint string, code int, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if code >= 200 && code < 300 {
		if r.lat[endpoint] == nil {
			r.lat[endpoint] = new(hist.Histogram)
		}
		r.lat[endpoint].Observe(d)
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

// Report is the loadgen output document. Latency summarizes the 2xx
// replies of each endpoint, each timed from send to the last byte of the
// reply, with the fields and quantile rule of `/v1/stats`; Status tallies
// every reply by endpoint and status code, sheds included.
type Report struct {
	Meta    map[string]any          `json:"meta"`
	Totals  Totals                  `json:"totals"`
	Latency map[string]hist.Summary `json:"latency"`
	Status  map[string]map[int]int  `json:"status"`
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
	lat := map[string]hist.Summary{}
	for ep, h := range r.lat {
		lat[ep] = h.Summary()
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
