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

// TestNewPoolSizesFromGOMAXPROCS: NewPool(0), the pool every run-level
// sweep uses, has one worker per GOMAXPROCS, so GOMAXPROCS=1 is the
// sequential sweep; an explicit n is n workers.
func TestNewPoolSizesFromGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 3} {
		runtime.GOMAXPROCS(procs)
		if got := NewPool(0).Size(); got != procs {
			t.Errorf("GOMAXPROCS %d: NewPool(0).Size() = %d", procs, got)
		}
	}
	if got := NewPool(5).Size(); got != 5 {
		t.Errorf("NewPool(5).Size() = %d", got)
	}
}
