package sim

import (
	"math"
	"math/bits"
)

// Handler is what the scheduler runs when an event's instant comes. It is an
// interface and not a func() so that a pooled object can be its own event:
// the queue entry then points at the object the event is about, not at a
// closure that points at it (see storm's delivery).
type Handler interface{ Fire() }

// Func adapts a plain function to Handler. A func value is pointer-shaped,
// so the conversion allocates nothing.
type Func func()

// Fire calls f.
func (f Func) Fire() { f() }

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	h   Handler
}

// eventHeap is a hand-specialized 4-ary min-heap ordered by (at, seq).
// container/heap is deliberately not used: its interface methods box every
// pushed and popped event (two heap allocations per scheduled event), which
// at tens of millions of events per run dominated the allocation profile.
// The 4-ary layout halves the tree depth of a binary heap, and both sifts
// move a hole rather than swap: the events on the path shift one level each
// and the sifted one is written once, where the hole ends up — half the
// copies, which is what a four-word event would otherwise cost the small
// heaps of a sweep. The (at, seq) order is a strict total order (seq is
// unique), so the pop sequence — and therefore the schedule — is independent
// of the heap's internal arrangement.
type eventHeap []event

// before reports whether e pops before o.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

func (h *eventHeap) push(e event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	e := s[n]
	s[n] = event{} // release handler references for the GC
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		for c := first + 1; c < first+4 && c < n; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&e) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = e
	return top
}

// The ring's geometry. Virtual time is integer microseconds, so a bucket is
// the events of 32 consecutive microseconds and the ring covers
// ringSize×32 µs ≈ 33 ms ahead of the bucket being drained — longer than any
// link or sequencer delay the substrates draw; timers beyond it (replay and
// flush timeouts) wait in the far heap. None of these is a tuning knob: pop
// order does not depend on them, only speed and memory do.
const (
	bucketShift = 5 // log2 of a bucket's width in µs
	ringSize    = 1024
	ringMask    = ringSize - 1
	ringWords   = ringSize / 64
	// chunkSize is small because a sparse calendar holds one part-filled
	// chunk per pending event; at a hundred thousand pending, chunks of 8
	// and of 64 drain equally fast.
	chunkSize = 8
	// laneCount is a bucket's width: one lane per microsecond of the bucket
	// being drained.
	laneCount = 1 << bucketShift
	laneMask  = laneCount - 1
	// bringIn is the pending count above which the ring comes in. The ring
	// pops faster than one heap at every size measured (from 128 pending);
	// what it costs is memory up front — 17 KB of slots and lanes and up to
	// a chunk per pending event, several times the heap it replaces — and a
	// sweep runs thousands of simulations that never hold more than a few
	// hundred events and execute too few to repay that.
	bringIn = 512
	// firstHeapCap is the capacity cur starts with, at the first push. A
	// sweep's simulations are small and there are ten thousand of them: grown
	// by doubling from nothing, their heaps allocated twice what they ended
	// with. This is the capacity the median simulation of the chaos suite
	// ends with (EXPERIMENTS.md "A bucket is 32 FIFOs") and fills a malloc
	// size class exactly.
	firstHeapCap = 151
	// unringed is curB while the queue is a single heap: every event's
	// bucket is below it, so every push goes to cur.
	unringed = math.MaxInt64
)

// bucketOf returns the absolute bucket number of an instant.
func bucketOf(t Time) int64 { return int64(t) >> bucketShift }

// chunk is a fixed-size piece of a bucket. Buckets are chains of chunks
// drawn from the ring's free list, not slices of their own: a thousand
// slices, each grown by doubling to its bucket's largest burst, held and
// allocated several times what is ever pending.
type chunk struct {
	next *chunk
	n    int
	ev   [chunkSize]event
}

// lane holds the events of one microsecond of the bucket being drained, in
// seq order; ev[:off] have been popped.
type lane struct {
	ev  []event
	off int
}

// bucketRing is the calendar part of the queue: slot b&ringMask holds, in
// arrival order, the events of absolute bucket b for curB < b < curB+ringSize
// (the slot of curB itself is empty outside advance), and occ has one bit per
// non-empty slot. The events of curB are in lanes, lane at&laneMask holding
// those of instant at, with one bit of laneOcc per lane that has any left;
// n counts both.
type bucketRing struct {
	lanes   [laneCount]lane
	laneOcc uint32
	slots   [ringSize]struct{ head, tail *chunk }
	occ     [ringWords]uint64
	n       int
	free    *chunk
}

// addCurrent appends an event of the bucket being drained to its
// microsecond's lane.
func (r *bucketRing) addCurrent(e event) {
	i := uint(e.at) & laneMask
	l := &r.lanes[i]
	l.ev = append(l.ev, e)
	r.laneOcc |= 1 << i
	r.n++
}

func (r *bucketRing) add(b int64, e event) {
	slot := uint(b) & ringMask
	s := &r.slots[slot]
	c := s.tail
	if c == nil || c.n == chunkSize {
		fresh := r.free
		if fresh != nil {
			r.free, fresh.next = fresh.next, nil
		} else {
			fresh = new(chunk)
		}
		if c == nil {
			s.head = fresh
			r.occ[slot>>6] |= 1 << (slot & 63)
		} else {
			c.next = fresh
		}
		s.tail, c = fresh, fresh
	}
	c.ev[c.n] = e
	c.n++
	r.n++
}

// deal makes bucket b the one being drained: its chain is dealt out to the
// lanes, one event at a time and in chain order, and the slot is emptied.
func (r *bucketRing) deal(b int64) {
	slot := uint(b) & ringMask
	s := &r.slots[slot]
	for c := s.head; c != nil; {
		r.n -= c.n
		for _, e := range c.ev[:c.n] {
			r.addCurrent(e)
		}
		clear(c.ev[:c.n]) // release handler references for the GC
		c.n = 0
		c.next, r.free, c = r.free, c, c.next
	}
	s.head, s.tail = nil, nil
	r.occ[slot>>6] &^= 1 << (slot & 63)
}

// next returns the first non-empty bucket after curB.
func (r *bucketRing) next(curB int64) (int64, bool) {
	if r.n == 0 {
		return 0, false
	}
	start := uint(curB+1) & ringMask
	w := start >> 6
	word := r.occ[w] &^ (1<<(start&63) - 1)
	// ringWords+1 words: the first one is visited twice, the second time
	// for the bits below start, which are the far end of the window.
	for i := 0; i <= ringWords; i++ {
		if word != 0 {
			slot := w<<6 + uint(bits.TrailingZeros64(word))
			return curB + 1 + int64((slot-start)&ringMask), true
		}
		w = (w + 1) % ringWords
		word = r.occ[w]
	}
	panic("sim: bucket ring counts events its bitmap does not show")
}

// eventQueue is the scheduler's priority queue. It pops in the strict total
// order (at, seq) whatever its layout, so the layout is invisible to the
// schedule. A small queue is the single heap cur. Once more than bringIn
// events are pending it becomes a calendar: the bucket being drained is
// ring.lanes, a FIFO per microsecond; ring.slots hold the next ringSize-1
// buckets as unsorted chains — a push there is an append, and a bucket's
// chain is dealt to the lanes when it becomes current; far is a heap of
// everything beyond the ring's horizon, moved into the ring as the horizon
// reaches it; and cur keeps only what is scheduled before the bucket being
// drained (see push).
//
// Lanes, slots and chains compare no two events, and do not have to.
// Virtual time is integer microseconds, so a lane holds events of one
// instant and (at, seq) order inside it is seq order. seq increases with
// every push, so a container that only pushes append to is in seq order: a
// lane is one, and so is a slot's chain but for the far events that reach
// it out of push order, popped from the far heap by (at, seq). That still
// keeps any two of the same instant in seq order — all a lane needs, since
// dealing a chain to the lanes keeps chain order within each lane — and
// they reach the chain before any direct push can: slot b takes direct
// pushes only while b-curB < ringSize, curB moves only in advance, and
// advance migrates every far event the new horizon covers before it
// returns. bringInRing, the other way into chains and lanes, pops the old
// heap and so fills them sorted.
type eventQueue struct {
	cur  eventHeap
	curB int64 // bucket being drained; unringed while the queue is one heap
	ring *bucketRing
	far  eventHeap
}

func (q *eventQueue) len() int {
	n := len(q.cur) + len(q.far)
	if q.ring != nil {
		n += q.ring.n
	}
	return n
}

// release empties the queue for reuse: the pending handlers are dropped,
// cur keeps its array, and the ring and far heap go.
func (q *eventQueue) release() {
	clear(q.cur)
	*q = eventQueue{cur: q.cur[:0], curB: unringed}
}

func (q *eventQueue) push(e event) {
	b := bucketOf(e.at)
	switch {
	case b > q.curB:
		if b-q.curB < ringSize {
			q.ring.add(b, e)
		} else {
			q.far.push(e)
		}
	case b == q.curB:
		q.ring.addCurrent(e)
	default:
		// While the queue is one heap, everything. Under the ring, b < curB
		// happens when a peek moved curB ahead to a far-off bucket and the
		// caller then scheduled something sooner (RunUntil stopping at a
		// deadline before the next event): such events all precede the
		// bucket, so pop takes them first, and a heap orders them.
		if q.cur == nil {
			q.cur = make(eventHeap, 0, firstHeapCap)
		}
		q.cur.push(e)
		if len(q.cur) > bringIn && q.ring == nil {
			q.bringInRing()
		}
	}
}

// bringInRing turns the single heap into the calendar layout, with the
// earliest event's bucket current. The heap is popped, not ranged over:
// chains and lanes must be filled in seq order, and the heap's array is not.
// There is no way back: a drained calendar is empty lanes with nothing
// behind them, which costs what an empty heap costs.
func (q *eventQueue) bringInRing() {
	q.ring = new(bucketRing)
	all := q.cur
	q.cur = nil
	q.curB = bucketOf(all[0].at)
	for len(all) > 0 {
		q.push(all.pop())
	}
}

// advance makes the earliest non-empty bucket current and reports whether
// there was one; cur and the lanes must be empty. Every far event lies
// beyond every ring event — it was at least ringSize buckets past curB when
// it was filed or last passed over, and the ring reaches less far than that
// — so the far heap decides only when the ring is empty.
func (q *eventQueue) advance() bool {
	r := q.ring
	if r == nil || r.n == 0 && len(q.far) == 0 {
		return false
	}
	nb, ok := r.next(q.curB)
	if !ok {
		nb = bucketOf(q.far[0].at)
	}
	q.curB = nb
	// The horizon moved: far events it now covers join the ring.
	for len(q.far) > 0 && bucketOf(q.far[0].at)-nb < ringSize {
		e := q.far.pop()
		r.add(bucketOf(e.at), e)
	}
	r.deal(nb)
	return true
}

// top returns the earliest pending event, nil when there is none. It may
// make a later bucket current to find it.
func (q *eventQueue) top() *event {
	if len(q.cur) > 0 {
		return &q.cur[0]
	}
	r := q.ring
	if r == nil || r.laneOcc == 0 && !q.advance() {
		return nil
	}
	l := &r.lanes[bits.TrailingZeros32(r.laneOcc)]
	return &l.ev[l.off]
}

// pop removes and returns the earliest pending event if there is one and it
// is due by deadline.
func (q *eventQueue) pop(deadline Time) (event, bool) {
	if len(q.cur) > 0 {
		if q.cur[0].at > deadline {
			return event{}, false
		}
		return q.cur.pop(), true
	}
	top := q.top()
	if top == nil || top.at > deadline {
		return event{}, false
	}
	e := *top
	r := q.ring
	i := uint(e.at) & laneMask
	l := &r.lanes[i]
	l.off++
	if l.off == len(l.ev) {
		clear(l.ev) // release handler references for the GC
		l.ev, l.off = l.ev[:0], 0
		r.laneOcc &^= 1 << i
	}
	r.n--
	return e, true
}
