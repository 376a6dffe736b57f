package sim

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestPoolMapCoversAllIndexes: every index runs exactly once, for inline
// and concurrent pools, at sizes around the worker count.
func TestPoolMapCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 3, 8, 100} {
			var counts []atomic.Int64
			counts = make([]atomic.Int64, n)
			p.Map(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestPoolMapPanicPropagates: a worker panic reaches the caller after the
// barrier instead of crashing the process.
func TestPoolMapPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := NewPool(workers)
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
			}()
			p.Map(8, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// TestNilPoolIsInline: a nil *Pool behaves as a size-1 inline pool.
func TestNilPoolIsInline(t *testing.T) {
	var p *Pool
	if p.Size() != 1 {
		t.Fatalf("nil pool size = %d", p.Size())
	}
	ran := 0
	p.Map(3, func(int) { ran++ })
	if ran != 3 {
		t.Fatalf("nil pool ran %d of 3", ran)
	}
}

// TestPoolFor: the one spelling of a Parallelism option — 0 and 1 are
// sequential (a nil pool), -1 is one worker per CPU, n > 1 is n workers.
func TestPoolFor(t *testing.T) {
	for _, tc := range []struct {
		parallelism, size int
		inline            bool
	}{
		{0, 1, true}, {1, 1, true}, {-1, runtime.GOMAXPROCS(0), false}, {3, 3, false},
	} {
		p := PoolFor(tc.parallelism)
		if p.Size() != tc.size || (p == nil) != tc.inline {
			t.Errorf("PoolFor(%d) = %v (size %d), want size %d, nil %v", tc.parallelism, p, p.Size(), tc.size, tc.inline)
		}
	}
}
