package storm

import "blazes/internal/coord"

// readyMsg announces through the ordering service that a committer instance
// has finished processing a batch and is ready to commit it.
type readyMsg struct {
	batch    int64
	instance int
}

// appliedMsg confirms through the ordering service that a committer
// instance has durably applied a batch. Confirmations are writes at the
// coordination service, so they serialize there — the per-instance cost
// that makes transactional commit rounds grow with cluster size.
type appliedMsg struct {
	batch    int64
	instance int
}

// txCoordinator enforces Storm's transactional commit discipline: batch b
// commits only after batch b−1 has fully committed, across all committer
// instances, with the decision serialized through the ordering service.
// This is the global serialization point whose cost Figure 11 measures.
type txCoordinator struct {
	topo *Topology
	// ready tracks which committer instances announced readiness per batch.
	ready map[int64]map[int]bool
	// applied tracks which instances finished applying the current batch.
	applied map[int64]map[int]bool
	// next is the batch allowed to commit now.
	next int64
	// committing marks an in-progress commit round.
	committing bool
}

func newTxCoordinator(t *Topology) *txCoordinator {
	c := &txCoordinator{
		topo:    t,
		ready:   map[int64]map[int]bool{},
		applied: map[int64]map[int]bool{},
	}
	t.seq.Subscribe(func(m coord.Sequenced) {
		if v, ok := m.Msg.(appliedMsg); ok {
			c.onApplied(v.batch, v.instance)
		}
	})
	return c
}

// submitReady delivers a readiness announcement to the coordinator over
// the network. Readiness is a notification (a zk watch fire), not a
// serialized write, so it does not consume ordering-service capacity.
func (c *txCoordinator) submitReady(r readyMsg) {
	c.topo.sim.After(c.topo.cfg.Link.Delay(c.topo.sim), func() { c.onReady(r) })
}

func (c *txCoordinator) onReady(r readyMsg) {
	set, ok := c.ready[r.batch]
	if !ok {
		set = map[int]bool{}
		c.ready[r.batch] = set
	}
	set[r.instance] = true
	c.tryCommit()
}

// tryCommit starts the commit round for the next batch once every committer
// instance is ready for it and the previous round finished.
func (c *txCoordinator) tryCommit() {
	if c.committing {
		return
	}
	st := c.topo.committers
	if st == nil {
		return
	}
	if len(c.ready[c.next]) < st.n {
		return
	}
	c.committing = true
	b := c.next
	// Broadcast "commit b" to every committer instance over the network;
	// each applies, then confirms through the ordering service (a write at
	// the coordination service, serialized there).
	for _, ins := range st.instances {
		ins := ins
		c.topo.sim.After(c.topo.cfg.Link.Delay(c.topo.sim), func() {
			bs := ins.batch(b)
			c.topo.sim.After(commitCost, func() {
				ins.applyCommit(b, bs)
				c.topo.seq.Submit(appliedMsg{batch: b, instance: ins.idx})
			})
		})
	}
}

func (c *txCoordinator) onApplied(b int64, idx int) {
	set, ok := c.applied[b]
	if !ok {
		set = map[int]bool{}
		c.applied[b] = set
	}
	set[idx] = true
	st := c.topo.committers
	if len(set) < st.n {
		return
	}
	// Batch fully committed: advance the global order.
	delete(c.ready, b)
	delete(c.applied, b)
	c.next = b + 1
	c.committing = false
	c.tryCommit()
}
