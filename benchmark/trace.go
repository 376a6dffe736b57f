package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call the harness made into a layer's public functions.
// Times are nanoseconds since the recorder was created; Parent is the index
// of the span that caused this one (-1 for a root) and Op identifies the
// workload op all spans of one request share.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps a traced run's spans and layer observations in memory; they
// are written out when the benchmark ends. A nil *recorder is the untraced
// run: every method is a no-op, so workloads call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// obs holds raw observations keyed by per-layer metric name; a metric's
	// reported value is the median of its observations.
	obs map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), obs: map[string][]float64{}}
}

// begin opens a span as a child of parent and returns its index; end closes
// it. An op opens its own span this way, because the spans of the calls it
// makes need that index while the op is still running.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	end := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

// span times fn as a child of parent.
func (r *recorder) span(name string, parent, op int, fn func()) {
	id := r.begin(name, parent, op)
	fn()
	r.end(id)
}

// observe records one raw value for a per-layer metric.
func (r *recorder) observe(metric string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.obs[metric] = append(r.obs[metric], v)
	r.mu.Unlock()
}

// durations returns the length in milliseconds of every span called name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration minus
// the part of its interval that its child spans cover (children of a
// concurrent op may overlap, so the covered part is the union).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}
