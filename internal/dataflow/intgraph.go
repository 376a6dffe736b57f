package dataflow

import "slices"

// Dense-id graph primitives shared by the compiled structure and the lint
// passes: CSR adjacency, Tarjan's SCC algorithm and a binary min-heap, all
// over int32 ids so the hot paths touch flat slices only.

// csr is a compressed-sparse-row table: at(v) is the slice of values filed
// under key v.
type csr struct {
	off []int32 // len n+1
	val []int32
}

func (c csr) at(v int32) []int32 { return c.val[c.off[v]:c.off[v+1]] }

// insert files x last under key v.
func (c *csr) insert(v, x int32) {
	c.val = slices.Insert(c.val, int(c.off[v+1]), x)
	for w := int(v) + 1; w < len(c.off); w++ {
		c.off[w]++
	}
}

// remove drops x, which is filed under key v.
func (c *csr) remove(v, x int32) {
	i := int(c.off[v]) + slices.Index(c.at(v), x)
	c.val = slices.Delete(c.val, i, i+1)
	for w := int(v) + 1; w < len(c.off); w++ {
		c.off[w]--
	}
}

// closeGap renumbers ids after id gap has been dropped from their range:
// every id above it moves down by one.
func closeGap(ids []int32, gap int32) {
	for i, id := range ids {
		if id > gap {
			ids[i] = id - 1
		}
	}
}

// groupBy files item j under keys[j] (items with a negative key are
// skipped), storing vals[j] — or j itself when vals is nil. Items keep
// their input order within a key (a stable counting sort).
func groupBy(n int, keys, vals []int32) csr {
	off := make([]int32, n+1)
	for _, k := range keys {
		if k >= 0 {
			off[k+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	val := make([]int32, off[n])
	next := make([]int32, n)
	copy(next, off)
	for j, k := range keys {
		if k < 0 {
			continue
		}
		x := int32(j)
		if vals != nil {
			x = vals[j]
		}
		val[next[k]] = x
		next[k]++
	}
	return csr{off: off, val: val}
}

// tarjanSCC labels the strongly connected components of the directed graph
// on nodes 0..n-1 with successor lists succ. It returns each node's
// component id and the component count. The walk is iterative, so depth is
// bounded by memory rather than by the goroutine stack.
func tarjanSCC(n int, succ csr) (id []int32, count int) {
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	id = make([]int32, n)
	for i := range index {
		index[i], id[i] = unvisited, unvisited
	}
	type frame struct{ v, edge int32 }
	var (
		stack []int32 // Tarjan's stack; id[v] == unvisited marks "on stack" once indexed
		calls []frame
		next  int32
	)
	for root := int32(0); int(root) < n; root++ {
		if index[root] != unvisited {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		calls = append(calls[:0], frame{v: root, edge: succ.off[root]})
		for len(calls) > 0 {
			f := &calls[len(calls)-1]
			v := f.v
			if f.edge < succ.off[v+1] {
				w := succ.val[f.edge]
				f.edge++
				switch {
				case index[w] == unvisited:
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					calls = append(calls, frame{v: w, edge: succ.off[w]})
				case id[w] == unvisited && index[w] < low[v]: // w is on the stack
					low[v] = index[w]
				}
				continue
			}
			calls = calls[:len(calls)-1]
			if len(calls) > 0 {
				if p := calls[len(calls)-1].v; low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					id[w] = int32(count)
					if w == v {
						break
					}
				}
				count++
			}
		}
	}
	return id, count
}

// idHeap is a binary min-heap of ids. Interface nodes are numbered in
// less() order and output interfaces are ranked in topological order, so
// the least id is the lexicographically least node, or the earliest pending
// derivation. Hand-rolled (rather than container/heap) to keep the hot path
// free of interface boxing and per-op allocations.
type idHeap []int32

func (h *idHeap) push(x int32) {
	*h = append(*h, x)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[i] >= s[parent] {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *idHeap) pop() int32 {
	s := *h
	min := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*h = s
	i := 0
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < len(s) && s[left] < s[smallest] {
			smallest = left
		}
		if right < len(s) && s[right] < s[smallest] {
			smallest = right
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return min
}

// idSet is a set of dense ids that remembers what it holds: add is O(1) and
// clear costs its members, not its range, so an edit that marks three ids of
// ten thousand pays for three.
type idSet struct {
	ids []int32 // the members, in insertion order
	has []bool  // id → member
}

func newIDSet(n int) idSet { return idSet{has: make([]bool, n)} }

func (s *idSet) add(id int32) {
	if !s.has[id] {
		s.has[id] = true
		s.ids = append(s.ids, id)
	}
}

// grow extends the set's range by one id.
func (s *idSet) grow() { s.has = append(s.has, false) }

// drop takes id out of the set's range: the ids above it move down by one.
func (s *idSet) drop(id int32) {
	if s.has[id] {
		i := slices.Index(s.ids, id)
		s.ids = slices.Delete(s.ids, i, i+1)
	}
	s.has = slices.Delete(s.has, int(id), int(id)+1)
	closeGap(s.ids, id)
}

func (s *idSet) clear() {
	for _, id := range s.ids {
		s.has[id] = false
	}
	s.ids = s.ids[:0]
}
