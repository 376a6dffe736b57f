// Package hist is the product's one latency instrument: a lock-free,
// fixed-memory histogram with one quantile rule and the Summary that
// `/v1/stats` and cmd/loadgen's report both print.
//
// Values are whole microseconds; Observe truncates a duration to them.
// Buckets are log-linear: a value below 64 µs has a bucket of its own, and
// above that each power-of-two range [2^k, 2^(k+1)) is cut into 32 equal
// buckets, so no bucket is wider than a 32nd of its lower bound. 1,600
// buckets (12.8 kB) cover every duration a time.Duration can hold.
//
// The quantile rule is nearest rank: the q-quantile of n values is the
// ⌈q·n⌉-th smallest (the smallest when q·n ≤ 1). The histogram reports the
// midpoint of the bucket holding that value, capped at the exact maximum.
//
// Error bound: a reported quantile is within 1/64 (≈1.6%) of the exact
// order statistic, relative to it, and exact below 64 µs. The count, the
// maximum and the sum behind the mean are exact.
//
// The package reads no clock; callers time, it counts.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	subBits = 5
	sub     = 1 << subBits // buckets per power of two
	// maxBits is the bit length of the largest microsecond count a
	// time.Duration holds (≈2^53).
	maxBits  = 54
	nBuckets = (maxBits - subBits + 1) * sub
)

// bucket returns the index of the bucket holding v µs.
func bucket(v uint64) int {
	if v < sub {
		return int(v)
	}
	e := bits.Len64(v) - 1 - subBits
	return e*sub + int(v>>e)
}

// middle returns the midpoint of bucket i.
func middle(i int) uint64 {
	if i < sub {
		return uint64(i)
	}
	e := i/sub - 1
	return uint64(i-e*sub)<<e + (1<<e-1)/2
}

// Histogram records latencies. The zero value is empty and ready to use;
// every method is safe for concurrent use.
type Histogram struct {
	buckets [nBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // µs
	max     atomic.Uint64 // µs
}

// Observe records one latency (a negative one as zero).
func (h *Histogram) Observe(d time.Duration) {
	us := uint64(max(d.Microseconds(), 0))
	h.buckets[bucket(us)].Add(1)
	h.count.Add(1)
	h.sum.Add(us)
	for cur := h.max.Load(); us > cur && !h.max.CompareAndSwap(cur, us); cur = h.max.Load() {
	}
}

// quantile is the package's quantile rule (see the package comment), in µs.
func (h *Histogram) quantile(q float64) uint64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := max(uint64(math.Ceil(q*float64(n))), 1)
	top := h.max.Load()
	var seen uint64
	for i := range h.buckets {
		if seen += h.buckets[i].Load(); seen >= rank {
			return min(middle(i), top)
		}
	}
	return top
}

// Summary is one latency section in microseconds; TotalSec is the sum of
// every recorded latency in whole seconds.
type Summary struct {
	Count    uint64 `json:"count"`
	MeanUs   uint64 `json:"mean_us"`
	P50Us    uint64 `json:"p50_us"`
	P95Us    uint64 `json:"p95_us"`
	P99Us    uint64 `json:"p99_us"`
	MaxUs    uint64 `json:"max_us"`
	TotalSec uint64 `json:"total_sec"`
}

// Summary reads the histogram; observers may keep recording meanwhile.
func (h *Histogram) Summary() Summary {
	n, sum := h.count.Load(), h.sum.Load()
	s := Summary{
		Count:    n,
		P50Us:    h.quantile(0.50),
		P95Us:    h.quantile(0.95),
		P99Us:    h.quantile(0.99),
		MaxUs:    h.max.Load(),
		TotalSec: sum / 1_000_000,
	}
	if n > 0 {
		s.MeanUs = sum / n
	}
	return s
}
