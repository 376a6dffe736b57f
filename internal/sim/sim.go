// Package sim is a deterministic discrete-event simulator with virtual time.
// It supplies the nondeterministic messaging environment in which the
// paper's anomalies arise — reordering, duplication (at-least-once delivery)
// and partitions that heal — while keeping every run perfectly reproducible
// from a seed: the same (seed, configuration) pair always yields the same
// schedule, and different seeds explore different delivery orders. This
// substitutes for the paper's EC2 testbed; see DESIGN.md §2.
//
// The scheduler is single-threaded: one loop pops events in (time, seq)
// order and runs each to completion, and every random draw happens there.
// Concurrency lives one level up — whole seeded simulations fan out over a
// Pool (pool.go), one worker per GOMAXPROCS, and fold in index order. See
// DESIGN.md "Parallel execution".
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
)

// Time is virtual time in microseconds.
type Time int64

// Common durations.
const (
	Microsecond Time = 1
	Millisecond Time = 1000
	Second      Time = 1000 * Millisecond
)

// String renders the time as fractional milliseconds.
func (t Time) String() string {
	return fmt.Sprintf("%d.%03dms", t/Millisecond, t%Millisecond)
}

// Seconds converts virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Sim is a deterministic discrete-event scheduler.
type Sim struct {
	now    Time
	events eventQueue
	rng    *rand.Rand
	seq    uint64
	steps  uint64
}

// released holds simulators handed back by Release for New to take up
// again. It is a sync.Pool, so the collector empties it: a sweep's worker
// reuses one simulator schedule after schedule, and nothing outlives the
// sweep.
var released sync.Pool

// New creates a simulator whose nondeterministic choices are driven by the
// given seed: its Rand draws what rand.New(rand.NewSource(seed)) draws. Both
// a fresh simulator and a released one it takes up copy the seed's state
// out of the process's seeded-state table (source.go), and a taken-up one's
// queue is empty, so the schedule is the one a fresh simulator would run.
func New(seed int64) *Sim {
	if s, ok := released.Get().(*Sim); ok {
		s.rng.Seed(seed)
		return s
	}
	src := new(source)
	src.Seed(seed)
	return &Sim{rng: rand.New(src), events: eventQueue{curB: unringed}}
}

// Release hands the simulator back for a later New, emptied: pending events
// are dropped without running, and the clock and counters restart. It keeps
// the rand.Rand with its source and the first heap's array, which is what a
// sweep's small simulations allocate; a ring and a far heap go. The next New
// overwrites the source's state with its seed's, so nothing drawn before
// Release shows after it. Release a simulator once, not from inside a run,
// and touch neither it, its Rand nor a Link on it afterwards.
func (s *Sim) Release() {
	s.events.release()
	s.now, s.seq, s.steps = 0, 0, 0
	released.Put(s)
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulator's seeded random source. All randomness in a
// simulation must flow through it to preserve determinism.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// Schedule schedules h at absolute virtual time t (clamped to now).
func (s *Sim) Schedule(t Time, h Handler) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, h: h})
}

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) { s.Schedule(t, Func(fn)) }

// After schedules fn d after the current time.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// runEvent executes one popped event.
func (s *Sim) runEvent(e event) {
	s.now = e.at
	s.steps++
	e.h.Fire()
}

// Step runs the next event; it reports false when no events remain.
func (s *Sim) Step() bool {
	e, ok := s.events.pop(math.MaxInt64)
	if ok {
		s.runEvent(e)
	}
	return ok
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline; the clock ends at
// deadline (or later if an executed event scheduled exactly at it advanced
// time further).
func (s *Sim) RunUntil(deadline Time) {
	for e, ok := s.events.pop(deadline); ok; e, ok = s.events.pop(deadline) {
		s.runEvent(e)
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Steps reports how many events have executed (useful in tests).
func (s *Sim) Steps() uint64 { return s.steps }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.events.len() }
