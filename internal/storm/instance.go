package storm

import "blazes/internal/sim"

// Committer is implemented by bolts whose FinishBatch output must be applied
// durably at commit time (e.g. a backing-store writer). The engine calls
// Commit under the topology's commit discipline: immediately after the batch
// seals (CommitSealed) or in global batch order (CommitTransactional).
type Committer interface {
	Commit(batch int64)
}

// instance is one physical task of a bolt stage: a serial executor fed by
// reordering network links.
type instance struct {
	st   *stage
	idx  int
	bolt Bolt

	busyUntil sim.Time
	// batches holds a batch's state at its number: a spout numbers its
	// batches densely from 0, and a duplicate names one already held.
	batches []*batchState
	// seenWords is, per upstream instance, the widest any batch's dedup
	// bitset has grown: a new batch's bitsets are carved from one array at
	// these capacities.
	seenWords []int
	// queue holds tuples awaiting their execution event, in busy-time
	// order. Execution events of one instance fire in exactly the order
	// they were scheduled (busyUntil strictly increases), so a FIFO matches
	// the schedule — and lets every execution share the two prebuilt
	// closures below instead of allocating one per tuple.
	queue    []execItem
	queueOff int
	// cur is the tuple exec is running; collect routes its emissions.
	cur     execItem
	exec    func()
	collect Emitter
}

// execItem is one queued tuple execution.
type execItem struct {
	tuple Tuple
	bs    *batchState
}

type batchState struct {
	recvFrom []int  // upstream instance → deduped data tuples received
	expected []int  // upstream instance → announced count
	endFrom  []bool // upstream instance → punctuation arrived
	// seen is a per-upstream-instance bitset over emission sequence
	// numbers: the dedup state that used to be a map of formatted strings.
	// Each is carved from words.
	seen     [][]uint64
	words    []uint64
	finished bool
	// flushScheduled marks the timer-based (unpunctuated) completion path.
	flushScheduled bool
	// counts tracks per-downstream-stage (by position), per-target emitted
	// counts.
	counts    [][]int
	emitSeq   int32
	readySent bool
	committed bool
}

// isSeen reports whether (from, seq) was already processed.
func (bs *batchState) isSeen(from, seq int32) bool {
	bits := bs.seen[from]
	word := int(seq) / 64
	return word < len(bits) && bits[word]&(1<<(uint(seq)%64)) != 0
}

// markSeen records (from, seq) as processed in bs.
func (in *instance) markSeen(bs *batchState, from, seq int32) {
	bits := bs.seen[from]
	word := int(seq) / 64
	if word >= len(bits) {
		// In one step: arrivals are reordered, so the first is as likely to
		// need the last word as the first. Within the capacity the batch
		// was carved with, this allocates nothing.
		bits = append(bits, make([]uint64, word+1-len(bits))...)
		bs.seen[from] = bits
		in.seenWords[from] = max(in.seenWords[from], len(bits))
	}
	bits[word] |= 1 << (uint(seq) % 64)
}

// newInstance returns instance idx of st, taking up one a released topology
// kept (Release) if there is one: its queue and batch arrays come emptied,
// and its two closures already point at it.
func (t *Topology) newInstance(st *stage, idx int) *instance {
	var in *instance
	if n := len(t.spareInstances); n > 0 {
		in = t.spareInstances[n-1]
		t.spareInstances = t.spareInstances[:n-1]
	} else {
		in = new(instance)
		in.collect = func(out Tuple) {
			out.Batch = in.cur.tuple.Batch
			in.emit(in.cur.bs, out)
		}
		in.exec = func() {
			it := in.queue[in.queueOff]
			in.queue[in.queueOff] = execItem{}
			in.queueOff++
			if in.queueOff == len(in.queue) {
				in.queue = in.queue[:0]
				in.queueOff = 0
			}
			in.cur = it
			in.bolt.Execute(it.tuple, in.collect)
			in.tryFinish(it.tuple.Batch, it.bs)
		}
	}
	*in = instance{
		st:        st,
		idx:       idx,
		bolt:      st.factory(idx),
		batches:   in.batches[:0],
		seenWords: zeroed(in.seenWords, st.upstreamN),
		queue:     in.queue[:0],
		exec:      in.exec,
		collect:   in.collect,
	}
	return in
}

func (in *instance) batch(b int64) *batchState {
	for int64(len(in.batches)) <= b {
		in.batches = append(in.batches, nil)
	}
	if bs := in.batches[b]; bs != nil {
		return bs
	}
	bs := in.st.topo.newBatchState(in.st.upstreamN, in.seenWords)
	in.batches[b] = bs
	return bs
}

// newBatchState returns the state of a batch that n upstream instances feed,
// its bitsets carved at the widths in seenWords: a batch state a released
// topology kept (Release), emptied, or a new one.
func (t *Topology) newBatchState(n int, seenWords []int) *batchState {
	var bs *batchState
	if k := len(t.spareBatches); k > 0 {
		bs = t.spareBatches[k-1]
		t.spareBatches = t.spareBatches[:k-1]
	} else {
		bs = new(batchState)
	}
	total := 0
	for _, w := range seenWords {
		total += w
	}
	*bs = batchState{
		recvFrom: zeroed(bs.recvFrom, n),
		expected: zeroed(bs.expected, n),
		endFrom:  zeroed(bs.endFrom, n),
		seen:     zeroed(bs.seen, n),
		words:    zeroed(bs.words, total),
	}
	words := bs.words
	for i, w := range seenWords {
		bs.seen[i], words = words[:0:w], words[w:]
	}
	return bs
}

// zeroed returns s resized to n zero elements, in s's array when it fits.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// receive handles one network message.
func (in *instance) receive(m message) {
	t := in.st.topo
	bs := in.batch(m.batchID())

	if m.batchEnd() {
		// A duplicate punctuation writes what the first wrote.
		bs.endFrom[m.from] = true
		bs.expected[m.from] = int(m.count)
		in.tryFinish(m.batchID(), bs)
		return
	}

	if bs.isSeen(m.from, m.seq) {
		return // a duplicate
	}
	if bs.finished {
		// A tuple for a batch this instance already (timer-)flushed: the
		// anomalous configuration leaves it out of the batch.
		t.metrics.Stragglers++
		return
	}
	in.markSeen(bs, m.from, m.seq)
	bs.recvFrom[m.from]++

	execAt := in.busyUntil
	if now := t.sim.Now(); execAt < now {
		execAt = now
	}
	execAt += t.cfg.PerTupleCost
	in.busyUntil = execAt
	in.queue = append(in.queue, execItem{tuple: m.tuple, bs: bs})
	t.sim.At(execAt, in.exec)

	if !t.cfg.Punctuate && !bs.flushScheduled {
		bs.flushScheduled = true
		batch := m.batchID()
		t.sim.After(t.cfg.FlushTimeout, func() { in.flush(batch, bs) })
	}
}

// emit routes one produced tuple to every downstream stage, drawing routing
// randomness and network delays.
func (in *instance) emit(bs *batchState, out Tuple) {
	t := in.st.topo
	if bs.counts == nil && len(in.st.downstream) > 0 {
		bs.counts = make([][]int, len(in.st.downstream))
	}
	for di, down := range in.st.downstream {
		t.routeBuf = down.grouping.Route(out, down.n, t.sim.Rand().Int63(), t.routeBuf[:0])
		seq := bs.emitSeq
		bs.emitSeq++
		if bs.counts[di] == nil {
			bs.counts[di] = make([]int, down.n)
		}
		for _, target := range t.routeBuf {
			bs.counts[di][target]++
			t.deliver(down, target, message{seq: seq, from: int32(in.idx), tuple: out}, t.sim.Now())
		}
	}
}

// tryFinish completes the batch when every upstream instance has punctuated
// and all announced tuples have been executed.
func (in *instance) tryFinish(b int64, bs *batchState) {
	t := in.st.topo
	if bs.finished || !t.cfg.Punctuate {
		return
	}
	for i := 0; i < in.st.upstreamN; i++ {
		if !bs.endFrom[i] {
			return
		}
		if bs.recvFrom[i] != bs.expected[i] {
			return
		}
	}
	in.finish(b, bs)
}

// flush is the timer-based completion used when punctuations are disabled:
// whatever has arrived is treated as the batch.
func (in *instance) flush(b int64, bs *batchState) {
	if !bs.finished {
		in.finish(b, bs)
	}
}

// finish runs FinishBatch, propagates punctuations downstream, and enters
// the commit path on committer stages.
func (in *instance) finish(b int64, bs *batchState) {
	t := in.st.topo
	bs.finished = true
	at := in.busyUntil
	if now := t.sim.Now(); at < now {
		at = now
	}
	at += finishBatchCost
	in.busyUntil = at
	t.sim.At(at, func() {
		in.bolt.FinishBatch(b, func(out Tuple) {
			out.Batch = b
			in.emit(bs, out)
		})
		if t.cfg.Punctuate {
			in.sendPunctuations(b, bs)
		}
		if in.st.committer {
			in.enterCommit(b, bs)
		}
	})
}

// sendPunctuations announces this instance's per-target emission counts to
// every downstream stage.
func (in *instance) sendPunctuations(b int64, bs *batchState) {
	t := in.st.topo
	for di, down := range in.st.downstream {
		var counts []int
		if bs.counts != nil {
			counts = bs.counts[di]
		}
		for target := 0; target < down.n; target++ {
			count := 0
			if counts != nil {
				count = counts[target]
			}
			m := message{seq: -1, from: int32(in.idx), tuple: Tuple{Batch: b}, count: int32(count)}
			t.deliver(down, target, m, t.sim.Now())
		}
	}
}

// enterCommit applies the batch under the commit discipline.
func (in *instance) enterCommit(b int64, bs *batchState) {
	t := in.st.topo
	switch t.mode {
	case CommitSealed:
		// Independent commit: apply locally, then ack the spout.
		t.sim.After(commitCost, func() { in.applyCommit(b, bs) })
	case CommitTransactional:
		if !bs.readySent {
			bs.readySent = true
			t.txc.submitReady(readyMsg{batch: b, instance: in.idx})
		}
	}
}

// applyCommit durably applies the batch and acknowledges the spout.
func (in *instance) applyCommit(b int64, bs *batchState) {
	t := in.st.topo
	if bs.committed {
		return
	}
	bs.committed = true
	if c, ok := in.bolt.(Committer); ok {
		c.Commit(b)
	}
	// Ack travels back to the spout controller over the network.
	idx := in.idx
	t.sim.At(t.cfg.Link.Arrival(t.sim), func() { t.commitDone(b, idx) })
}
