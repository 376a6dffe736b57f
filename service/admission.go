package service

import (
	"errors"
	"sync/atomic"
	"time"
)

// Admission control: the create/mutate/analyze paths run real analysis
// work, so they pass through a bounded gate — a fixed number of
// concurrency slots plus a bounded, deadline-aware wait queue. Each
// admitted request does its work on its own goroutine and starts no
// workers, so a slot is one busy goroutine and GOMAXPROCS slots keep the
// CPUs busy without oversubscribing them. A request that cannot get a
// slot before the queue bound, its own deadline, or the queue timeout is
// shed with 429 and a Retry-After hint instead of piling up unboundedly
// behind a slow analysis. Cheap read paths (list, get, lint, healthz,
// stats) bypass the gate so the server stays observable under overload.

// errOverloaded marks a shed request (wire form: 429 + Retry-After).
var errOverloaded = errors.New("service: overloaded")

// gate is the admission gate. The zero value is unusable; newGate sizes
// it.
type gate struct {
	slots        chan struct{}
	maxQueue     int
	queueTimeout time.Duration

	waiting  atomic.Int64
	inFlight atomic.Int64

	admitted      atomic.Uint64
	shed          atomic.Uint64
	queueTimeouts atomic.Uint64
}

func newGate(maxConcurrent, maxQueue int, queueTimeout time.Duration) *gate {
	return &gate{
		slots:        make(chan struct{}, maxConcurrent),
		maxQueue:     maxQueue,
		queueTimeout: queueTimeout,
	}
}

// acquire admits the caller or reports why not: errOverloaded when the
// queue is full or the wait timed out (shed — the client should back off
// and retry), or ctx.Err() when the request's own deadline/disconnect
// fired first (deadline-aware shedding: a waiter whose caller has gone
// away frees its queue slot instead of finishing work nobody wants).
// On success the returned release function must be called exactly once.
func (g *gate) acquire(done <-chan struct{}) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inFlight.Add(1)
		return g.release, nil
	default:
	}
	// Queue, bounded: beyond maxQueue waiters the request is shed
	// immediately — queueing it would only add latency to a request that
	// will time out anyway.
	if int(g.waiting.Load()) >= g.maxQueue {
		g.shed.Add(1)
		return nil, errOverloaded
	}
	g.waiting.Add(1)
	defer g.waiting.Add(-1)
	timer := time.NewTimer(g.queueTimeout)
	defer timer.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		g.inFlight.Add(1)
		return g.release, nil
	case <-done:
		g.shed.Add(1)
		return nil, errCanceled
	case <-timer.C:
		g.queueTimeouts.Add(1)
		g.shed.Add(1)
		return nil, errOverloaded
	}
}

// errCanceled marks a waiter whose own request died first.
var errCanceled = errors.New("service: request canceled while queued")

func (g *gate) release() {
	<-g.slots
	g.inFlight.Add(-1)
}

// retryAfterSeconds is the backoff hint sent with every shed response: at
// least a second, at most the queue timeout (after which a slot has
// either opened or the server is still saturated and the client should
// have given up anyway).
func (g *gate) retryAfterSeconds() int {
	secs := int(g.queueTimeout / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// AdmissionStats is the gate's /v1/stats section.
type AdmissionStats struct {
	MaxConcurrent int    `json:"max_concurrent"`
	MaxQueue      int    `json:"max_queue"`
	InFlight      int64  `json:"in_flight"`
	QueueDepth    int64  `json:"queue_depth"`
	Admitted      uint64 `json:"admitted"`
	Shed          uint64 `json:"shed"`
	QueueTimeouts uint64 `json:"queue_timeouts"`
	// ReadOnlyRejected counts writes shed with 503 because a poisoned
	// journal made the server read-only.
	ReadOnlyRejected uint64 `json:"read_only_rejected"`
}

func (g *gate) stats() AdmissionStats {
	return AdmissionStats{
		MaxConcurrent: cap(g.slots),
		MaxQueue:      g.maxQueue,
		InFlight:      g.inFlight.Load(),
		QueueDepth:    g.waiting.Load(),
		Admitted:      g.admitted.Load(),
		Shed:          g.shed.Load(),
		QueueTimeouts: g.queueTimeouts.Load(),
	}
}
