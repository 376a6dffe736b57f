package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

const (
	bucketWidth = Time(1) << bucketShift
	horizon     = ringSize * bucketWidth
)

// TestEventIsThreeWords: a bucket chunk holds chunkSize events back to back,
// so at 24 bytes a chunk of 8 is three cache lines.
func TestEventIsThreeWords(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 24 {
		t.Fatalf("event is %d bytes, want 24", size)
	}
}

// queueDelta turns two program bytes into a delay: same instant, inside one
// bucket, exactly on and one short of a bucket boundary, around the ring's
// horizon, beyond it, and far beyond it.
func queueDelta(class, arg byte) Time {
	a := Time(arg)
	switch class % 8 {
	case 0:
		return 0
	case 1:
		return a
	case 2:
		return bucketWidth * (a % 8)
	case 3:
		return bucketWidth*(a%8+1) - 1
	case 4:
		return horizon - 2*bucketWidth + a
	case 5:
		return horizon + a*bucketWidth
	case 6:
		return a * Millisecond
	default:
		return horizon * (a % 3)
	}
}

// modelEvent is an event of the reference model: a list kept in no order,
// popped by scanning for the least (at, seq).
type modelEvent struct {
	at  Time
	seq uint64
	id  int
}

// queueHarness drives a Sim and the reference model through the same
// program and compares them after every operation.
type queueHarness struct {
	t   testing.TB
	sim *Sim

	now     Time
	seq     uint64
	pending []modelEvent
	nextID  int

	fired []int // ids in the order the Sim ran them
}

// childDelta is the follow-up an event schedules when it runs, if any: a
// third of the events schedule one (numbered -id; follow-ups schedule
// nothing), at the same instant, inside the bucket being drained, or later.
func childDelta(id int) (Time, bool) {
	if id < 0 || id%3 != 0 || id%7 == 0 {
		return 0, false
	}
	return []Time{0, 1, bucketWidth - 1, bucketWidth, 5 * bucketWidth, horizon}[id%6], true
}

func (h *queueHarness) schedule(d Time) {
	h.nextID++ // from 1: a follow-up is numbered -id
	id := h.nextID
	h.seq++
	h.pending = append(h.pending, modelEvent{at: h.now + d, seq: h.seq, id: id})
	h.sim.At(h.sim.Now()+d, func() {
		h.fired = append(h.fired, id)
		if cd, ok := childDelta(id); ok {
			h.sim.After(cd, func() { h.fired = append(h.fired, -id) })
		}
	})
}

// modelMin returns the index of the model's earliest event.
func (h *queueHarness) modelMin() int {
	min := 0
	for i, e := range h.pending {
		if m := h.pending[min]; e.at < m.at || e.at == m.at && e.seq < m.seq {
			min = i
		}
	}
	return min
}

// modelStep runs the model's earliest event and returns its id.
func (h *queueHarness) modelStep() int {
	i := h.modelMin()
	e := h.pending[i]
	h.pending[i] = h.pending[len(h.pending)-1]
	h.pending = h.pending[:len(h.pending)-1]
	h.now = e.at
	if cd, ok := childDelta(e.id); ok {
		h.seq++
		h.pending = append(h.pending, modelEvent{at: h.now + cd, seq: h.seq, id: -e.id})
	}
	return e.id
}

// check compares what both sides can observe between operations.
func (h *queueHarness) check(op string, want []int) {
	h.t.Helper()
	if fmt.Sprint(h.fired) != fmt.Sprint(want) {
		h.t.Fatalf("%s: the queue ran %v, the model %v", op, h.fired, want)
	}
	h.fired = h.fired[:0]
	if h.sim.Pending() != len(h.pending) {
		h.t.Fatalf("%s: Pending() = %d, the model holds %d", op, h.sim.Pending(), len(h.pending))
	}
	if h.sim.Now() != h.now {
		h.t.Fatalf("%s: Now() = %d, the model is at %d", op, h.sim.Now(), h.now)
	}
	if settled := h.sim.events.settle(); settled != (len(h.pending) > 0) {
		h.t.Fatalf("%s: settle() = %v, the model holds %d", op, settled, len(h.pending))
	}
	if len(h.pending) > 0 {
		top, m := h.sim.events.cur[0], h.pending[h.modelMin()]
		if top.at != m.at || top.seq != m.seq {
			h.t.Fatalf("%s: the queue's earliest is (%d, %d), the model's (%d, %d)", op, top.at, top.seq, m.at, m.seq)
		}
	}
}

// runQueueProgram interprets prog three bytes at a time: an opcode and two
// arguments. It ends by draining both sides to empty, and reports whether the
// ring came in on the way.
func runQueueProgram(t testing.TB, prog []byte) (ringed bool) {
	h := &queueHarness{t: t, sim: New(1)}
	for len(prog) >= 3 {
		op, a, b := prog[0], prog[1], prog[2]
		prog = prog[3:]
		var want []int
		switch op % 6 {
		case 0, 1: // one event
			h.schedule(queueDelta(a, b))
		case 2: // a burst, large enough to cross the bring-in count in one or two
			for i := 0; i < (int(b)%48+1)*8; i++ {
				h.schedule(queueDelta(a+byte(i%3), b+byte(7*i)))
			}
		case 3: // a few steps
			for i := 0; i <= int(a)%16 && len(h.pending) > 0; i++ {
				want = append(want, h.modelStep())
				if !h.sim.Step() {
					t.Fatalf("Step reported an empty queue, the model holds %d", len(h.pending)+1)
				}
			}
		case 4: // run to a deadline
			deadline := h.now + queueDelta(a, b)
			for len(h.pending) > 0 && h.pending[h.modelMin()].at <= deadline {
				want = append(want, h.modelStep())
			}
			if h.now < deadline {
				h.now = deadline
			}
			h.sim.RunUntil(deadline)
		case 5: // same-instant burst
			for i := 0; i <= int(a)%32; i++ {
				h.schedule(0)
			}
		}
		h.check(fmt.Sprintf("op %d(%d,%d)", op%6, a, b), want)
	}
	var want []int
	for len(h.pending) > 0 {
		want = append(want, h.modelStep())
	}
	h.sim.Run()
	h.check("drain", want)
	if h.sim.Step() {
		t.Fatal("Step ran an event on a drained queue")
	}
	return h.sim.events.ring != nil
}

// queuePrograms are the fuzz target's seed corpus and the differential
// test's cases.
var queuePrograms = []struct {
	name string
	prog []byte
}{
	{"small", []byte{0, 1, 9, 0, 6, 2, 1, 0, 0, 3, 2, 0, 0, 4, 200, 4, 2, 3, 3, 15, 0}},
	{"same-instant", []byte{5, 31, 0, 5, 31, 0, 3, 3, 0, 5, 7, 0, 3, 15, 0}},
	{"cross-bring-in", []byte{2, 1, 47, 2, 6, 47, 3, 15, 0, 2, 4, 47, 4, 6, 3, 2, 5, 30, 3, 15, 0}},
	{"horizon", []byte{
		2, 6, 40, 2, 1, 47, // ring in
		0, 4, 62, 0, 4, 63, 0, 4, 64, 0, 4, 65, // one bucket short of, at and past the horizon
		0, 7, 1, 0, 7, 2, 0, 5, 0, 0, 5, 200,
		3, 15, 0, 4, 7, 1, 3, 15, 0, 4, 5, 3,
	}},
	{"deadline-then-sooner", []byte{
		2, 6, 47, 2, 6, 47, // ring in, events milliseconds apart
		3, 0, 0,
		4, 3, 0, 0, 1, 1, 0, 0, 0, // stop short of the next event, then schedule before it
		4, 2, 1, 0, 1, 3, 4, 3, 5, 0, 2, 2,
		3, 15, 0,
	}},
	{"bucket-boundary-deadlines", []byte{
		2, 1, 47, 2, 2, 47, 2, 3, 47,
		4, 2, 1, 4, 3, 0, 4, 2, 2, 4, 3, 1, 4, 0, 0, 4, 1, 31, 4, 1, 32,
	}},
	{"refill-after-drain", []byte{
		2, 6, 47, 2, 1, 47, 4, 6, 255, 4, 6, 255, 4, 6, 255, // in, and drained
		0, 1, 5, 2, 5, 47, 2, 0, 47, 3, 15, 9,
	}},
}

// TestQueueMatchesSortedModel: whatever the layout — one heap, the ring, the
// far heap, events moving between them — the simulator runs events in the
// order a list sorted by (at, seq) gives, reports the same Pending, and
// stops at deadlines on the same event.
func TestQueueMatchesSortedModel(t *testing.T) {
	for _, p := range queuePrograms {
		t.Run(p.name, func(t *testing.T) {
			// Every program but the first two is written to cross bringIn.
			if ringed := runQueueProgram(t, p.prog); ringed != (p.name != "small" && p.name != "same-instant") {
				t.Fatalf("ring in: %v", ringed)
			}
		})
	}
}

// TestRingComesInAboveBringIn: the queue is one heap up to and including
// bringIn pending events and a calendar — with what lies beyond the horizon
// in the far heap — from the next one on.
func TestRingComesInAboveBringIn(t *testing.T) {
	s := New(1)
	for i := 0; i <= bringIn; i++ {
		if s.events.ring != nil {
			t.Fatalf("the ring came in at %d pending, bringIn is %d", i, bringIn)
		}
		s.At(Time(i)*3*bucketWidth, func() {})
	}
	if s.events.ring == nil {
		t.Fatalf("%d pending and the queue is still one heap", s.Pending())
	}
	if len(s.events.far) == 0 {
		t.Fatalf("events up to %d buckets ahead and none in the far heap", 3*bringIn)
	}
	s.Run()
	if s.Pending() != 0 || s.Steps() != bringIn+1 {
		t.Fatalf("ran %d of %d events, %d pending", s.Steps(), bringIn+1, s.Pending())
	}
}

func FuzzQueueOrder(f *testing.F) {
	for _, p := range queuePrograms {
		f.Add(p.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 600 {
			prog = prog[:600] // the model is quadratic
		}
		runQueueProgram(t, prog)
	})
}
