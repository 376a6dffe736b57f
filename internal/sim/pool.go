package sim

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded fork-join worker pool with deterministic merge
// semantics: Map partitions an index space over at most Size workers and
// blocks until every index has been processed (the merge barrier). Results
// are communicated through the caller's index-addressed storage, so the
// outcome is independent of which worker ran which index — determinism is
// by construction, not by luck.
//
// A Pool carries no per-simulation state: one pool may serve many
// simulators and many concurrent Map calls (sweeps nest safely; each call
// spawns its own bounded worker set).
type Pool struct{ n int }

// NewPool creates a pool of n workers. n ≤ 1 yields an inline pool whose
// Map runs on the calling goroutine; n ≤ 0 selects GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{n: n}
}

// PoolFor sizes a pool from a Parallelism option under the library
// convention: 0 or 1 is sequential (a nil pool, whose Map runs inline) and
// -1 is one worker per CPU.
func PoolFor(parallelism int) *Pool {
	if parallelism == 0 || parallelism == 1 {
		return nil
	}
	return NewPool(parallelism)
}

// Size reports the worker count (1 for an inline pool).
func (p *Pool) Size() int {
	if p == nil || p.n < 1 {
		return 1
	}
	return p.n
}

// Map invokes fn(i) for every i in [0, n), using up to Size concurrent
// workers, and returns once all invocations have completed. Invocations
// must be independent: fn must not assume any ordering across indexes. A
// panic in any invocation is re-raised on the caller after the barrier.
//
// A nil or size-1 pool runs every index inline, in order — the sequential
// semantics every parallel caller must be byte-identical to.
func (p *Pool) Map(n int, fn func(i int)) {
	_ = p.MapContext(context.Background(), n, fn)
}

// MapContext is Map with cancellation: once ctx is done, workers stop
// picking up new indexes and MapContext returns ctx.Err() after the ones in
// flight finish. Results are only complete when the error is nil — a
// cancelled sweep's outputs must be discarded, not merged.
func (p *Pool) MapContext(ctx context.Context, n int, fn func(i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	workers := p.Size()
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked any
	)
	done := ctx.Done()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicked == nil {
						panicked = r
					}
					mu.Unlock()
				}
			}()
			for {
				if done != nil {
					select {
					case <-done:
						return
					default:
					}
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return ctx.Err()
}
