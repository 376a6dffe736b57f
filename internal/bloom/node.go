package bloom

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Emission is a batch of rows leaving a node in one timestep: rows merged
// asynchronously (<~) into channels, plus the contents of output
// interfaces.
type Emission struct {
	Collection string
	Rows       []Row
}

// Node is one running instance of a module: its persistent state plus the
// timestep machinery. Nodes are driven by Deliver (network arrivals) and
// Tick (one Bloom timestep); hosts route the returned emissions over their
// network.
type Node struct {
	// ID names the node instance (e.g. "report1").
	ID    string
	mod   *Module
	state map[string]*store
	// stores lists state's values in declaration order, so that a tick
	// walks a slice and sorts no keys.
	stores []*store
	// prog is the module compiled against this node's stores: schemas,
	// strata, and column offsets resolved once, scans bound to store
	// pointers.
	prog  *program
	ticks int
	// gen is the module's edit count when the node was compiled; released
	// marks a node handed back by Release.
	gen      uint64
	released bool
}

// shelf holds released nodes by the module they were compiled from.
type shelf map[*Module][]*Node

// shelves is where Release puts a node and NewNode looks for one. It is a
// sync.Pool of shelves, so the collector empties it like any pool: a shelf
// keeps its modules reachable only until the collector drops it.
var shelves = sync.Pool{New: func() any { return shelf{} }}

// NewNode instantiates a module. The module must validate, stratify, and
// compile (compilation additionally resolves predicate and having columns
// that Validate's schema pass does not reach). When a node of the same
// module, unchanged since it was compiled, has been released, NewNode takes
// that one up instead: it was validated and compiled from this module, and
// it is empty.
func NewNode(id string, mod *Module) (*Node, error) {
	if n := takeReleased(mod); n != nil {
		n.ID, n.released = id, false
		return n, nil
	}
	if err := mod.Validate(); err != nil {
		return nil, err
	}
	strata, maxStratum, err := stratify(mod)
	if err != nil {
		return nil, err
	}
	n := &Node{ID: id, mod: mod, state: map[string]*store{}, gen: mod.gen}
	for _, c := range mod.Collections() {
		st := &store{decl: c}
		n.state[c.Name] = st
		n.stores = append(n.stores, st)
	}
	n.prog, err = compileProgram(mod, n.state, strata, maxStratum)
	if err != nil {
		return nil, err
	}
	return n, nil
}

// takeReleased returns a released node of mod compiled at its current
// edit count, or nil; the stale ones it meets go to the collector.
func takeReleased(mod *Module) *Node {
	sh := shelves.Get().(shelf)
	defer shelves.Put(sh)
	nodes := sh[mod]
	for len(nodes) > 0 {
		n := nodes[len(nodes)-1]
		nodes[len(nodes)-1] = nil
		nodes = nodes[:len(nodes)-1]
		if n.gen == mod.gen {
			sh[mod] = nodes
			return n
		}
	}
	delete(sh, mod)
	return nil
}

// Release hands the node back, emptied, for a later NewNode of its module:
// every store, index, delta, pending queue and outbox is emptied and every
// rule memo and operator cache dropped, and each store's version moves on,
// so nothing cached in one run can match in the next. What stays is the
// compiled program and the capacity the run grew. The caller must not use
// the node afterwards; a second Release does nothing.
func (n *Node) Release() {
	if n.released {
		return
	}
	for _, st := range n.stores {
		st.release()
	}
	n.prog.release()
	n.ticks, n.released = 0, true
	sh := shelves.Get().(shelf)
	sh[n.mod] = append(sh[n.mod], n)
	shelves.Put(sh)
}

// Deliver queues rows for a collection; they become visible at the next
// tick (asynchronous arrival). The node keeps the rows it is handed, not
// copies: the caller must not modify them afterwards. (It may reuse the
// slice that carries them.) Everything the node hands out — Rows, every
// Emission — is a copy.
func (n *Node) Deliver(collection string, rows ...Row) error {
	st := n.state[collection]
	if st == nil {
		return fmt.Errorf("bloom: node %s: deliver to unknown collection %q", n.ID, collection)
	}
	c := st.decl
	// Validate the whole batch before queuing anything, so a failed
	// Deliver is never partially applied.
	for _, r := range rows {
		if len(r) != len(c.Schema) {
			return fmt.Errorf("bloom: node %s: row %v does not match %q schema %v", n.ID, r, collection, c.Schema)
		}
		for i, v := range r {
			switch v.(type) {
			case string, int64:
			default:
				return fmt.Errorf("bloom: node %s: row %v for %q: column %d has unsupported type %T (want string or int64)",
					n.ID, r, collection, i, v)
			}
		}
	}
	st.pendingIns = append(st.pendingIns, rows...)
	return nil
}

// Pending reports whether queued work exists (delivered rows or deferred
// merges), i.e. whether a tick would make progress.
func (n *Node) Pending() bool {
	for _, st := range n.stores {
		if len(st.pendingIns) > 0 || len(st.pendingDel) > 0 {
			return true
		}
	}
	return false
}

// Rows returns the current contents of a collection in canonical order.
func (n *Node) Rows(collection string) []Row {
	st, ok := n.state[collection]
	if !ok {
		return nil
	}
	return st.snapshot()
}

// Render returns the collection's rows as text: each rendered as Row.String
// renders it, sorted, comma-joined — what a digest of the contents wants,
// without the copies and the key sort Rows makes first.
func (n *Node) Render(collection string) string {
	st, ok := n.state[collection]
	if !ok {
		return ""
	}
	return renderSorted(st.rows)
}

// Size returns a collection's cardinality.
func (n *Node) Size(collection string) int {
	st, ok := n.state[collection]
	if !ok {
		return 0
	}
	return st.size()
}

// Ticks reports how many timesteps have run.
func (n *Node) Ticks() int { return n.ticks }

// Digest returns a canonical digest of the node's persistent state: every
// non-transient collection's name and rows in canonical order. Two nodes
// running the same module have equal digests exactly when their durable
// state agrees — the comparison replica-convergence checks rest on.
func (n *Node) Digest() string {
	h := fnv.New64a()
	c := getScratch()
	defer c.release()
	for _, st := range n.stores {
		if st.decl.Kind.Transient() {
			continue
		}
		c.encodeSorted(st.rows, Row.appendKey)
		c.text = append(append(c.text[:0], st.decl.Name...), '[')
		for _, e := range c.spans {
			c.text = append(e.row.appendString(c.text), ';')
		}
		c.text = append(c.text, ']')
		h.Write(c.text)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// rowsOf implements stateReader.
func (n *Node) rowsOf(name string) []Row { return n.state[name].snapshot() }

// Tick runs one Bloom timestep:
//
//  1. apply queued insertions/deletions (deliveries, <+, <-);
//  2. evaluate the instant (<=) rules to fixpoint, stratum by stratum,
//     semi-naively: after each stratum's first (full, memoized) pass, only
//     rules reading a collection that changed in the previous iteration
//     re-fire, and they join per-iteration deltas against full relations;
//  3. evaluate deferred (<+), delete (<-) and async (<~) rules against the
//     fixpoint state;
//  4. collect emissions (async merges and output-interface contents), in
//     canonical row order, cloned at the boundary;
//  5. clear transient collections.
//
// The error return is retained for API stability; compiled evaluation
// cannot fail (all schema and column resolution happens in NewNode).
func (n *Node) Tick() ([]Emission, error) {
	n.ticks++

	// 1. Apply pending work: per store, insertions before deletions. The
	// queues keep their capacity (and, until overwritten, a tick's worth of
	// references to rows that are mostly the store's own by now).
	for _, st := range n.stores {
		for _, r := range st.pendingIns {
			st.insert(r)
		}
		for _, r := range st.pendingDel {
			st.remove(r)
		}
		st.pendingIns, st.pendingDel = st.pendingIns[:0], st.pendingDel[:0]
	}

	// 2. Semi-naive stratified fixpoint of instant rules.
	for s := 0; s <= n.prog.maxStratum; s++ {
		rules := n.prog.instant[s]
		if len(rules) == 0 {
			continue
		}
		heads := n.prog.heads[s]
		for _, st := range heads {
			st.clearDelta()
		}
		// First iteration: full (memoized) evaluation of every rule.
		for _, cr := range rules {
			for _, row := range cr.eval() {
				cr.head.insertDelta(row)
			}
		}
		// Delta iterations: only re-fire rules whose reads changed.
		for {
			changed := false
			for _, st := range heads {
				if st.rotate() {
					changed = true
				}
			}
			if !changed {
				break
			}
			for _, cr := range rules {
				if !cr.dirty() {
					continue
				}
				for _, row := range cr.body.delta(nil) {
					cr.head.insertDelta(row)
				}
			}
		}
		for _, st := range heads {
			st.clearDelta()
		}
	}

	// 3. Deferred, delete, and async rules evaluate once on the fixpoint.
	// Their rows stay internal (pending queues alias immutable rows); only
	// async emissions cross the public boundary, cloned in step 4.
	var emissions []Emission
	for _, cr := range n.prog.rest {
		rows := cr.eval()
		switch cr.rule.Op {
		case Deferred:
			cr.head.pendingIns = append(cr.head.pendingIns, rows...)
		case Delete:
			cr.head.pendingDel = append(cr.head.pendingDel, rows...)
		case Async:
			cr.head.outbox = append(cr.head.outbox, rows...)
		}
	}
	for _, st := range n.prog.asyncHeads {
		if len(st.outbox) > 0 {
			emissions = append(emissions, Emission{Collection: st.decl.Name, Rows: canonRows(st.outbox)})
			st.outbox = st.outbox[:0]
		}
	}

	// 4. Output interfaces emit their fixpoint contents; 5. transients clear.
	for _, st := range n.stores {
		if st.decl.Kind == Output && len(st.rows) > 0 {
			emissions = append(emissions, Emission{Collection: st.decl.Name, Rows: st.snapshot()})
		}
		if st.decl.Kind.Transient() {
			st.clear()
		}
	}
	return emissions, nil
}

// canonRows dedups, clones, and canonically orders rows leaving the node.
func canonRows(rows []Row) []Row {
	var seen store
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		if seen.insert(r) {
			out = append(out, r.clone())
		}
	}
	SortRows(out)
	return out
}
