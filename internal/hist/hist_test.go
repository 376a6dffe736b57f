package hist

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"
)

// errBound is the relative error the package comment promises.
const errBound = 1.0 / 64

// exact is the nearest-rank order statistic of whole-µs samples.
func exact(sorted []uint64, q float64) uint64 {
	rank := max(int(math.Ceil(q*float64(len(sorted)))), 1)
	return sorted[rank-1]
}

// TestQuantilesWithinErrorBound holds every quantile the histogram reports
// to the exact order statistic of the same samples, within errBound.
func TestQuantilesWithinErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	repeat := func(n int, d time.Duration) []time.Duration { return slices.Repeat([]time.Duration{d}, n) }
	var random, past100s []time.Duration
	for i := 0; i < 20_000; i++ {
		// Log-uniform from 1 µs to ≈17 min: every bucket regime.
		random = append(random, time.Duration(math.Exp(rng.Float64()*math.Log(1e9)))*time.Microsecond)
	}
	for i := 0; i < 1_000; i++ {
		past100s = append(past100s, 100*time.Second+time.Duration(rng.Int63n(int64(3*time.Hour))))
	}
	cases := map[string][]time.Duration{
		"random":    random,
		"all-equal": repeat(500, 1234567*time.Microsecond),
		"two-mode":  append(repeat(90, 90*time.Microsecond), repeat(10, 40*time.Millisecond)...),
		"past-100s": past100s,
	}
	for name, samples := range cases {
		t.Run(name, func(t *testing.T) {
			var h Histogram
			sorted := make([]uint64, len(samples))
			var sum uint64
			for i, d := range samples {
				h.Observe(d)
				sorted[i] = uint64(d.Microseconds())
				sum += sorted[i]
			}
			slices.Sort(sorted)
			for q := 0.0; q <= 1; q += 0.005 {
				got, want := h.quantile(q), exact(sorted, q)
				if math.Abs(float64(got)-float64(want)) > errBound*float64(want) {
					t.Errorf("q%.3f = %d µs, exact %d µs: off by more than 1/64", q, got, want)
				}
				if want < 64 && got != want {
					t.Errorf("q%.3f = %d µs, exact %d µs: below 64 µs it must be exact", q, got, want)
				}
			}
			s := h.Summary()
			n := uint64(len(sorted))
			if s.Count != n || s.MaxUs != sorted[n-1] || s.MeanUs != sum/n || s.TotalSec != sum/1_000_000 {
				t.Errorf("summary %+v, want count %d, max %d, mean %d, total %d s", s, n, sorted[n-1], sum/n, sum/1_000_000)
			}
			if s.P50Us != h.quantile(0.5) || s.P95Us != h.quantile(0.95) || s.P99Us != h.quantile(0.99) {
				t.Errorf("summary %+v does not carry the quantile rule's values", s)
			}
		})
	}
}

// TestBucketsTile: consecutive values never map to a lower bucket, every
// bucket's midpoint lies in it, and the largest duration fits.
func TestBucketsTile(t *testing.T) {
	prev := 0
	for v := uint64(0); v < 1<<16; v++ {
		i := bucket(v)
		if i < prev || i > prev+1 {
			t.Fatalf("bucket(%d) = %d after %d", v, i, prev)
		}
		prev = i
	}
	for i := 0; i < nBuckets; i++ {
		if got := bucket(middle(i)); got != i {
			t.Fatalf("midpoint %d of bucket %d falls in bucket %d", middle(i), i, got)
		}
	}
	if got := bucket(uint64(time.Duration(math.MaxInt64).Microseconds())); got >= nBuckets {
		t.Fatalf("the largest duration maps to bucket %d of %d", got, nBuckets)
	}
}

func TestEmptySummaryIsZero(t *testing.T) {
	var h Histogram
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	h.Observe(-time.Second)
	if s := h.Summary(); s.Count != 1 || s.MaxUs != 0 || s.P99Us != 0 {
		t.Fatalf("a negative latency records as zero: %+v", s)
	}
}

// TestConcurrentObserversLoseNothing: run under -race, many observers and a
// reader share one histogram without a lock, and every count lands.
func TestConcurrentObserversLoseNothing(t *testing.T) {
	const workers, each = 8, 5_000
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				h.Observe(time.Duration(w*each+i) * time.Microsecond)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for h.count.Load() < workers*each {
			_ = h.Summary()
		}
	}()
	wg.Wait()
	<-done
	const n = workers * each
	var inBuckets uint64
	for i := range h.buckets {
		inBuckets += h.buckets[i].Load()
	}
	s := h.Summary()
	if s.Count != n || inBuckets != n || s.MaxUs != n-1 || s.MeanUs != (n-1)/2 {
		t.Fatalf("after %d observations: %+v, %d in buckets", n, s, inBuckets)
	}
}
