// Package sim is a deterministic discrete-event simulator with virtual time.
// It supplies the nondeterministic messaging environment in which the
// paper's anomalies arise — reordering, duplication (at-least-once delivery)
// and loss — while keeping every run perfectly reproducible from a seed:
// the same (seed, configuration) pair always yields the same schedule, and
// different seeds explore different delivery orders. This substitutes for
// the paper's EC2 testbed; see DESIGN.md §2.
//
// The scheduler is single-threaded by default. Attaching a Pool (SetPool)
// enables the deterministic parallel runtime: events registered with
// AtCompute carry a partition key and split into a pure compute phase and a
// sequential apply phase. Compute phases of events that share a virtual
// instant but touch distinct partitions run concurrently on the pool; the
// merge barrier then executes every apply in exact (time, seq) schedule
// order on the scheduler goroutine, where all random draws happen. The
// schedule — every event execution, every RNG draw — is therefore
// byte-identical to the sequential run. See DESIGN.md "Parallel execution".
package sim

import (
	"fmt"
	"math/rand"
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

// Partition identifies an isolated unit of simulated state — a site or
// operator instance. Compute phases of same-instant events with distinct
// partitions may run concurrently; events sharing a partition never do.
type Partition int32

// Sim is a deterministic discrete-event scheduler.
type Sim struct {
	now    Time
	events eventQueue
	rng    *rand.Rand
	seq    uint64
	steps  uint64
	pool   *Pool
	// window, windowKeys, and windowApplies are scratch space for the
	// parallel scheduler's same-instant event batches, reused across
	// steps so window formation allocates nothing.
	window        []event
	windowKeys    partitionSet
	windowApplies []func()
}

// New creates a simulator whose nondeterministic choices are driven by the
// given seed.
func New(seed int64) *Sim {
	return &Sim{rng: rand.New(rand.NewSource(seed)), events: eventQueue{curB: unringed}}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand exposes the simulator's seeded random source. All randomness in a
// simulation must flow through it, and only from event apply phases (or
// plain events) — never from a compute phase — to preserve determinism.
func (s *Sim) Rand() *rand.Rand { return s.rng }

// SetPool attaches a worker pool, enabling parallel execution of
// same-instant compute phases. A nil pool (or one of size ≤ 1) keeps the
// scheduler fully sequential. The schedule is identical either way.
func (s *Sim) SetPool(p *Pool) { s.pool = p }

// Pool returns the attached worker pool (nil when sequential).
func (s *Sim) Pool() *Pool { return s.pool }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, fn: fn})
}

// AtCompute schedules a two-phase event at absolute virtual time t (clamped
// to now): compute runs first and returns the apply to run afterwards.
//
// The contract that makes parallel execution deterministic:
//
//   - compute must not touch the Sim — no scheduling, no Rand draws, no
//     Now. It may read and write only state belonging to partition key.
//   - the returned apply runs on the scheduler goroutine in exact schedule
//     order and may do anything a plain event may.
//
// Without a pool the two phases run back-to-back, exactly like At.
func (s *Sim) AtCompute(t Time, key Partition, compute func() func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.events.push(event{at: t, seq: s.seq, compute: compute, key: key})
}

// After schedules fn d after the current time.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// runEvent executes one popped event sequentially.
func (s *Sim) runEvent(e event) {
	s.now = e.at
	s.steps++
	if e.compute != nil {
		e.compute()()
		return
	}
	e.fn()
}

// Step runs the next event; it reports false when no events remain. Step is
// always sequential; parallel windows form only inside Run and RunUntil.
func (s *Sim) Step() bool {
	if !s.events.settle() {
		return false
	}
	s.runEvent(s.events.cur.pop())
	return true
}

// stepWindow pops and executes the next batch of events. With a pool
// attached it collects the maximal run of two-phase events that (a) share
// the next virtual instant and (b) carry pairwise-distinct partition keys,
// runs their compute phases concurrently, then applies them in (at, seq)
// order. Any apply may schedule new events; those necessarily carry larger
// seq values (and times ≥ the instant), so they order strictly after every
// event of the window — the interleaving is exactly the sequential one.
func (s *Sim) stepWindow() bool {
	q := &s.events
	if !q.settle() {
		return false
	}
	if q.cur[0].compute == nil {
		s.runEvent(q.cur.pop())
		return true
	}
	at := q.cur[0].at
	s.window = s.window[:0]
	s.windowKeys.reset()
	for q.settle() && q.cur[0].at == at && q.cur[0].compute != nil && !s.windowKeys.has(q.cur[0].key) {
		s.windowKeys.add(q.cur[0].key)
		s.window = append(s.window, q.cur.pop())
	}
	w := s.window
	if len(w) > 1 {
		// Merge barrier: all computes finish before the first apply runs.
		if cap(s.windowApplies) < len(w) {
			s.windowApplies = make([]func(), len(w))
		}
		applies := s.windowApplies[:len(w)]
		s.pool.Map(len(w), func(i int) { applies[i] = w[i].compute() })
		for i := range w {
			s.now = w[i].at
			s.steps++
			applies[i]()
			applies[i] = nil // release for the GC
		}
		return true
	}
	s.runEvent(w[0])
	return true
}

// partitionSet tracks the distinct keys of one window. Windows are small
// (bounded by the partition count of one instant), so a linear scan over a
// small slice beats a map.
type partitionSet struct{ keys []Partition }

func (p *partitionSet) has(k Partition) bool {
	for _, have := range p.keys {
		if have == k {
			return true
		}
	}
	return false
}

func (p *partitionSet) add(k Partition) { p.keys = append(p.keys, k) }

func (p *partitionSet) reset() { p.keys = p.keys[:0] }

// parallel reports whether the parallel scheduler is active.
func (s *Sim) parallel() bool { return s.pool != nil && s.pool.Size() > 1 }

// Run executes events until none remain.
func (s *Sim) Run() {
	if s.parallel() {
		for s.stepWindow() {
		}
		return
	}
	for s.Step() {
	}
}

// RunUntil executes events with timestamps ≤ deadline; the clock ends at
// deadline (or later if an executed event scheduled exactly at it advanced
// time further).
func (s *Sim) RunUntil(deadline Time) {
	q := &s.events
	if s.parallel() {
		for q.settle() && q.cur[0].at <= deadline {
			s.stepWindow()
		}
	} else {
		for q.settle() && q.cur[0].at <= deadline {
			s.runEvent(q.cur.pop())
		}
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Steps reports how many events have executed (useful in tests).
func (s *Sim) Steps() uint64 { return s.steps }

// Pending reports the number of queued events.
func (s *Sim) Pending() int { return s.events.len() }
