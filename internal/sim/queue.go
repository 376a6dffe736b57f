package sim

import (
	"math"
	"math/bits"
)

type event struct {
	at  Time
	seq uint64 // FIFO tie-break for events at the same instant
	fn  func()
}

// eventHeap is a hand-specialized 4-ary min-heap ordered by (at, seq).
// container/heap is deliberately not used: its interface methods box every
// pushed and popped event (two heap allocations per scheduled event), which
// at tens of millions of events per run dominated the allocation profile.
// The 4-ary layout halves the tree depth of a binary heap. The (at, seq)
// order is a strict total order (seq is unique), so the pop sequence — and
// therefore the schedule — is independent of the heap's internal
// arrangement.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// up sifts element i towards the root.
func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 4
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// heapify orders arbitrary contents by sifting each element up in turn:
// linear on average, and the one sift loop push already has.
func (h eventHeap) heapify() {
	for i := 1; i < len(h); i++ {
		h.up(i)
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release closure references for the GC
	s = s[:n]
	*h = s
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(c, min) {
				min = c
			}
		}
		if !s.less(min, i) {
			break
		}
		s[i], s[min] = s[min], s[i]
		i = min
	}
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
	// bringIn is the pending count above which the ring comes in. The ring
	// pops faster than one heap at every size measured (from 128 pending);
	// what it costs is memory up front — 16 KB of slots and up to a chunk
	// per pending event, several times the heap it replaces — and a sweep
	// runs thousands of simulations that never hold more than a few hundred
	// events and execute too few to repay that.
	bringIn = 512
	// unringed is cur's bucket number while the queue is a single heap:
	// every event's bucket is ≤ it, so every push goes to cur.
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

// bucketRing is the calendar part of the queue: slot b&ringMask holds, in
// arrival order, the events of absolute bucket b for curB < b < curB+ringSize
// (the slot of curB itself is therefore always empty), and occ has one bit
// per non-empty slot.
type bucketRing struct {
	slots [ringSize]struct{ head, tail *chunk }
	occ   [ringWords]uint64
	n     int
	free  *chunk
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

// drain appends the events of bucket b to dst and empties the bucket.
func (r *bucketRing) drain(b int64, dst eventHeap) eventHeap {
	slot := uint(b) & ringMask
	s := &r.slots[slot]
	for c := s.head; c != nil; {
		dst = append(dst, c.ev[:c.n]...)
		clear(c.ev[:c.n]) // release closure references for the GC
		r.n -= c.n
		c.n = 0
		c.next, r.free, c = r.free, c, c.next
	}
	s.head, s.tail = nil, nil
	r.occ[slot>>6] &^= 1 << (slot & 63)
	return dst
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
// events are pending it becomes a calendar: cur keeps only the events of the
// bucket being drained (and any scheduled before it, see push), ring holds
// the next ringSize-1 buckets unsorted — a push there is an append, and a
// bucket is heapified once, when it becomes current — and far is a heap of
// everything beyond the ring's horizon, moved into the ring as the horizon
// reaches it.
type eventQueue struct {
	cur  eventHeap
	curB int64 // bucket cur is draining; unringed while the queue is one heap
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

func (q *eventQueue) push(e event) {
	b := bucketOf(e.at)
	// b < curB happens when a peek moved cur ahead to a far-off bucket and
	// the caller then scheduled something sooner (RunUntil stopping at a
	// deadline before the next event): cur is a heap, so it takes any event
	// that sorts before the ring's.
	if b <= q.curB {
		q.cur.push(e)
		if len(q.cur) > bringIn && q.curB == unringed {
			q.bringInRing()
		}
		return
	}
	q.place(b, e)
}

// place files an event of bucket b > curB in the ring or the far heap.
func (q *eventQueue) place(b int64, e event) {
	if b-q.curB < ringSize {
		q.ring.add(b, e)
	} else {
		q.far.push(e)
	}
}

// bringInRing turns the single heap into the calendar layout: cur keeps the
// events of the earliest bucket and the rest are dealt out. There is no way
// back: a drained calendar is an empty cur with nothing behind it, which
// costs what an empty heap costs.
func (q *eventQueue) bringInRing() {
	q.ring = new(bucketRing)
	all := q.cur
	q.curB = bucketOf(all[0].at)
	keep := all[:0]
	for _, e := range all {
		if b := bucketOf(e.at); b != q.curB {
			q.place(b, e)
		} else {
			keep = append(keep, e)
		}
	}
	clear(all[len(keep):])
	q.cur = keep
	q.cur.heapify()
}

// advance makes the earliest non-empty bucket current and reports whether
// there was one; cur must be empty. Every far event lies beyond every ring
// event — it was at least ringSize buckets past curB when it was filed or
// last passed over, and the ring reaches less far than that — so the far
// heap decides only when the ring is empty.
func (q *eventQueue) advance() bool {
	if q.ring == nil || q.ring.n == 0 && len(q.far) == 0 {
		return false
	}
	nb, ok := q.ring.next(q.curB)
	if !ok {
		nb = bucketOf(q.far[0].at)
	}
	q.curB = nb
	// The horizon moved: far events it now covers join the ring (or cur).
	for len(q.far) > 0 && bucketOf(q.far[0].at)-nb < ringSize {
		e := q.far.pop()
		if b := bucketOf(e.at); b == nb {
			q.cur = append(q.cur, e)
		} else {
			q.ring.add(b, e)
		}
	}
	q.cur = q.ring.drain(nb, q.cur)
	q.cur.heapify()
	return true
}

// settle reports whether any event is pending and, if so, leaves the
// earliest at cur[0]: callers read it there and take it with cur.pop().
func (q *eventQueue) settle() bool { return len(q.cur) > 0 || q.advance() }
