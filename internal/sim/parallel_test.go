package sim

import (
	"fmt"
	"strings"
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

// computeTrace exercises the two-phase scheduler: R partitions tick in
// rounds at shared instants; each compute mutates only its partition's
// state, each apply draws from the shared rng and schedules follow-ups
// (including same-instant plain events that act as window breakers). The
// trace records every apply in execution order plus all partition state.
// ballast plain events, each drawing from the rng, lie under the rounds —
// on their instants, between them and past them — so that with enough of
// them the windows form over the event queue's bucket ring and not over one
// small heap.
func computeTrace(t *testing.T, seed int64, pool *Pool, ballast int) string {
	const partitions = 5
	const rounds = 4
	s := New(seed)
	s.SetPool(pool)
	var b strings.Builder
	state := make([]int, partitions)
	var ballastDraws int64
	for i := 0; i < ballast; i++ {
		s.At(Time(i%9)*50+Time(i%2)*Time(i), func() { ballastDraws = ballastDraws*31 + s.Rand().Int63n(1000) })
	}
	if ringed := s.events.ring != nil; ringed != (ballast > bringIn) {
		t.Fatalf("%d events pending, ring in: %v", s.Pending(), ringed)
	}

	var tick func(p Partition, round int)
	tick = func(p Partition, round int) {
		at := Time(round) * 100
		s.AtCompute(at, p, func() func() {
			// Compute phase: partition-local work only.
			state[p] += round + int(p)
			local := state[p]
			return func() {
				// Apply phase: rng draws, scheduling, shared output.
				fmt.Fprintf(&b, "t=%d p=%d state=%d draw=%d\n", s.Now(), p, local, s.Rand().Int63n(1000))
				if round+1 < rounds {
					tick(p, round+1)
				}
				if p == 0 {
					// A plain event at the same instant as the next round's
					// computes: forces a window break mid-instant.
					s.At(Time(round+1)*100, func() {
						fmt.Fprintf(&b, "t=%d barrier draw=%d\n", s.Now(), s.Rand().Int63n(1000))
					})
				}
			}
		})
	}
	for p := Partition(0); p < partitions; p++ {
		tick(p, 0)
	}
	s.Run()
	fmt.Fprintf(&b, "steps=%d now=%d state=%v ballast=%d\n", s.Steps(), s.Now(), state, ballastDraws)
	return b.String()
}

// TestParallelScheduleByteIdentical pins the tentpole contract: the
// parallel scheduler produces a byte-identical schedule — same event order,
// same rng draw sequence, same final state — as the sequential one, for
// every pool size, over a small queue and over one with the ring in.
func TestParallelScheduleByteIdentical(t *testing.T) {
	for _, ballast := range []int{0, 2 * bringIn} {
		for seed := int64(1); seed <= 3; seed++ {
			want := computeTrace(t, seed, nil, ballast)
			for _, workers := range []int{1, 2, 4, 8} {
				got := computeTrace(t, seed, NewPool(workers), ballast)
				if got != want {
					t.Fatalf("ballast %d seed %d workers %d: parallel schedule differs from sequential:\n--- sequential\n%s--- parallel\n%s",
						ballast, seed, workers, want, got)
				}
			}
		}
	}
}

// TestAtComputeSequentialEquivalence: without a pool, AtCompute behaves
// exactly like At with the phases fused.
func TestAtComputeSequentialEquivalence(t *testing.T) {
	s := New(1)
	var order []string
	s.AtCompute(10, 1, func() func() {
		order = append(order, "compute")
		return func() { order = append(order, fmt.Sprintf("apply@%d", s.Now())) }
	})
	s.At(5, func() { order = append(order, "early") })
	s.Run()
	want := "early,compute,apply@10"
	if got := strings.Join(order, ","); got != want {
		t.Fatalf("order = %s, want %s", got, want)
	}
}

// TestRunUntilParallelDeadline: the parallel path honors the deadline
// exactly like the sequential one.
func TestRunUntilParallelDeadline(t *testing.T) {
	run := func(pool *Pool) (fired []int, now Time) {
		s := New(1)
		s.SetPool(pool)
		for i := 0; i < 6; i++ {
			i := i
			s.AtCompute(Time(i)*100, Partition(i%2), func() func() {
				return func() { fired = append(fired, i) }
			})
		}
		s.RunUntil(250)
		return fired, s.Now()
	}
	seqFired, seqNow := run(nil)
	parFired, parNow := run(NewPool(4))
	if fmt.Sprint(seqFired) != fmt.Sprint(parFired) || seqNow != parNow {
		t.Fatalf("sequential (%v, %d) != parallel (%v, %d)", seqFired, seqNow, parFired, parNow)
	}
	if len(seqFired) != 3 || seqNow != 250 {
		t.Fatalf("deadline semantics changed: fired %v now %d", seqFired, seqNow)
	}
}
