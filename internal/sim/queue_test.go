package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"blazes/internal/race"
)

const (
	bucketWidth = Time(1) << bucketShift
	horizon     = ringSize * bucketWidth
)

// TestEventIsFourWords: an event is {at, seq, Handler}, and an interface is
// two words where the func() it replaced was one. The fourth word saves the
// arrival a dependent load: the handler points at the pooled object the
// event is about, where a func() pointed at a closure pointing at it. What it
// costs is a chunk of 8 being four cache lines instead of three, and in the
// calendar those lines are only ever copied — nothing sifts a bucket any
// more; the heap, which does sift, moves a hole instead of swapping.
func TestEventIsFourWords(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size != 32 {
		t.Fatalf("event is %d bytes, want 32", size)
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
// nothing), at the same instant (the lane being drained), the next
// microsecond (its successor), elsewhere inside the bucket being drained, or
// later.
func childDelta(id int) (Time, bool) {
	if id < 0 || id%3 != 0 || id%7 == 0 {
		return 0, false
	}
	return []Time{0, 1, bucketWidth - 1, bucketWidth, 5 * bucketWidth, horizon}[id/3%6], true
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
	for i := 0; i < len(h.fired) || i < len(want); i++ {
		if i < len(h.fired) && i < len(want) && h.fired[i] == want[i] {
			continue
		}
		// The ten events around the first difference: a burst runs to
		// hundreds of ids.
		window := func(ids []int) []int { return ids[min(max(i-5, 0), len(ids)):min(i+5, len(ids))] }
		h.t.Fatalf("%s: the queue ran %d events, the model %d; they differ first at event %d: the queue ran …%v…, the model …%v…",
			op, len(h.fired), len(want), i, window(h.fired), window(want))
	}
	h.fired = h.fired[:0]
	if h.sim.Pending() != len(h.pending) {
		h.t.Fatalf("%s: Pending() = %d, the model holds %d", op, h.sim.Pending(), len(h.pending))
	}
	if h.sim.Now() != h.now {
		h.t.Fatalf("%s: Now() = %d, the model is at %d", op, h.sim.Now(), h.now)
	}
	top := h.sim.events.top()
	if (top != nil) != (len(h.pending) > 0) {
		h.t.Fatalf("%s: top() = %v, the model holds %d", op, top, len(h.pending))
	}
	if top != nil {
		if m := h.pending[h.modelMin()]; top.at != m.at || top.seq != m.seq {
			h.t.Fatalf("%s: the queue's earliest is (%d, %d), the model's (%d, %d)", op, top.at, top.seq, m.at, m.seq)
		}
	}
}

// runQueueProgram interprets prog three bytes at a time on s, an opcode and
// two arguments. It ends by draining both sides to empty, and reports whether
// the ring came in on the way.
func runQueueProgram(t testing.TB, s *Sim, prog []byte) (ringed bool) {
	h := &queueHarness{t: t, sim: s}
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
	// 512 events of one instant, sixteen popped so that the heap's array is
	// no longer in seq order, then the burst that crosses bringIn: the lane
	// must come out in seq order all the same.
	{"same-instant-cross-bring-in", []byte{
		5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0,
		5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0, 5, 31, 0,
		3, 15, 0, 5, 31, 0, 5, 31, 0, 3, 15, 0, 5, 3, 0, 3, 15, 0,
	}},
	// Every microsecond of eight buckets occupied, stepped through a few at
	// a time: follow-ups land in the lane being drained, in the next one, at
	// the bucket's far end and past it, and bursts join the draining lane.
	{"follow-up-into-draining-lane", []byte{
		2, 1, 47, 2, 1, 47,
		3, 15, 0, 5, 31, 0, 3, 15, 0, 3, 15, 0, 0, 1, 1, 0, 1, 1, 3, 15, 0,
		5, 7, 0, 3, 3, 0, 0, 1, 2, 3, 15, 0, 3, 15, 0,
	}},
	// The ring in and drained, and the clock run far past the bucket it
	// stopped in: the next burst is near the clock but beyond the horizon of
	// that bucket, so all of it goes to the far heap (the harness peeks after
	// every op, which is why it is one burst), the far heap alone names the
	// next bucket, and that bucket's events — several to an instant — are
	// dealt to the lanes through an empty ring.
	{"far-into-empty-ring", []byte{
		2, 6, 47, 2, 1, 47, 4, 6, 255, 4, 6, 255, 4, 6, 255,
		2, 1, 47, 3, 15, 0, 0, 0, 0, 0, 1, 3, 3, 15, 0, 0, 5, 5, 0, 6, 200,
	}},
	// RunUntil stops inside a bucket with later lanes still occupied; what is
	// scheduled then goes to the deadline's own microsecond and to lanes
	// before the occupied ones.
	{"deadline-inside-bucket", []byte{
		2, 1, 47, 2, 1, 47,
		4, 1, 10, 0, 0, 0, 0, 1, 3, 0, 1, 1, 4, 1, 2, 0, 0, 0, 4, 0, 0, 3, 2, 0,
		4, 1, 40, 0, 1, 2, 5, 3, 0, 4, 1, 1, 3, 15, 0,
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
			if ringed := runQueueProgram(t, New(1), p.prog); ringed != (p.name != "small" && p.name != "same-instant") {
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

// drainReleased empties the pool of released simulators, so that the next
// New builds a fresh one.
func drainReleased() {
	for released.Get() != nil {
	}
}

// TestReleasedSimMatchesNew releases a simulator holding events in each of
// the queue's three layouts — one heap; ring lanes and chains; the far heap,
// after RunUntil stopped short of it — with draws taken and a Read half
// consumed, and holds the simulator New then takes up to a fresh one: the
// same draws as a fresh source of the seed, and the same pop order as the
// sorted model on every queue program. None of the dropped events runs.
func TestReleasedSimMatchesNew(t *testing.T) {
	if !race.Enabled {
		// A pool hands back on the P it was given on, so one P makes the
		// take-up certain; under -race the pool drops some at random.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	released := false
	pending := func() {
		if released {
			t.Fatal("an event pending at Release ran after it")
		}
	}
	layouts := []struct {
		name  string
		dirty func(s *Sim) bool // reports whether s holds the layout
	}{
		{"one heap", func(s *Sim) bool {
			for i := 0; i < 40; i++ {
				s.At(Time(i)*7, pending)
			}
			s.Step()
			return s.events.ring == nil && len(s.events.cur) == 39
		}},
		{"ring lanes and chains", func(s *Sim) bool {
			for i := 0; i <= bringIn+40; i++ {
				s.At(Time(i%64)*bucketWidth/2+Time(i%3), pending)
			}
			for i := 0; i < 5; i++ {
				s.Step()
			}
			r := s.events.ring
			return r != nil && r.laneOcc != 0 && r.n > len(r.lanes[0].ev)
		}},
		{"far heap", func(s *Sim) bool {
			for i := 0; i <= bringIn; i++ {
				s.At(Time(i)*3*bucketWidth, pending)
			}
			s.RunUntil(10 * bucketWidth)
			return s.events.ring != nil && len(s.events.far) > 0
		}},
	}
	for _, l := range layouts {
		for k, p := range queuePrograms {
			drainReleased()
			released = false
			s := New(int64(k))
			if !l.dirty(s) {
				t.Fatalf("%s: the queue does not hold the layout", l.name)
			}
			s.Rand().Int63()
			s.Rand().Read(make([]byte, 3)) // leaves a Read half consumed
			s.Release()
			released = true

			seed := int64(100 + k)
			got := New(seed)
			if !race.Enabled && got != s {
				t.Fatalf("%s: New built a simulator with a released one waiting", l.name)
			}
			if got.Now() != 0 || got.Steps() != 0 || got.Pending() != 0 {
				t.Fatalf("%s: taken up at %v after %d steps with %d pending", l.name, got.Now(), got.Steps(), got.Pending())
			}
			// A fresh simulator's Rand is a fresh source of its seed.
			want := rand.New(rand.NewSource(seed))
			a, b := make([]byte, 5), make([]byte, 5)
			got.Rand().Read(a)
			want.Read(b)
			if string(a) != string(b) {
				t.Fatalf("%s: Read gives %x, a fresh source %x", l.name, a, b)
			}
			for i := 0; i < 50; i++ {
				if g, w := got.Rand().Int63(), want.Int63(); g != w {
					t.Fatalf("%s: draw %d is %d, a fresh source's %d", l.name, i, g, w)
				}
			}
			t.Run(l.name+"/"+p.name, func(t *testing.T) { runQueueProgram(t, got, p.prog) })
		}
	}
}

// TestSmallSimAllocs pins what a sweep pays per simulation: ten thousand of
// them a pass, a hundred-odd events each, none ever near bringIn. Such a
// simulation allocates the Sim, its rand.Rand with its 607-word source, and
// one heap of firstHeapCap events — no ring, no lanes, no regrowth. A layout
// change that taxes the small case shows here as a count or as bytes.
func TestSmallSimAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	drainReleased()
	noop := func() {}
	var s *Sim
	run := func() {
		s = New(1)
		for i := 0; i < 100; i++ {
			s.At(Time(i%10)*bucketWidth, noop)
		}
		s.Run()
	}
	if allocs := testing.AllocsPerRun(100, run); allocs != 4 {
		t.Errorf("a 100-event simulation allocates %v times, want 4", allocs)
	}
	if s.events.ring != nil || cap(s.events.cur) != firstHeapCap || s.Steps() != 100 {
		t.Errorf("after %d steps: ring %v, heap capacity %d, want none and %d", s.Steps(), s.events.ring != nil, cap(s.events.cur), firstHeapCap)
	}
	// TotalAlloc is the whole process's, so take the least of a few runs:
	// a goroutine an earlier test left winding down can only add to it.
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	// As the allocator's size classes round them: the Sim 96, rand.Rand 48,
	// its source 5376, the heap 4864.
	if least != 10384 {
		t.Errorf("a 100-event simulation allocates %d bytes, want 10384", least)
	}

	// A sweep releases each simulation and the next one takes it up: once
	// warm, the cycle allocates nothing.
	cycle := func() {
		run()
		s.Release()
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a released 100-event simulation allocates %v times when taken up, want 0", allocs)
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
		runQueueProgram(t, New(1), prog)
	})
}
