package bloom

import (
	"fmt"
	"slices"
	"strings"
)

// This file is the compiled evaluator. NewNode lowers every rule body into a
// compiledExpr tree exactly once: schemas are resolved, column offsets and
// join/group key indexes are precomputed, and scans are bound to their store
// pointers. Compiled evaluation therefore cannot fail, performs no schema
// lookups, and never clones rows — rows are immutable by convention and
// cloning is reserved for the way out (Rows, Emission). Each
// operator supports two modes:
//
//   - full: the complete result set (used at the first iteration of a
//     stratum, and for deferred/delete/async rules on the fixpoint);
//   - delta: a superset of the rows newly derivable since the last
//     semi-naive rotation (heads dedup on insert, so over-approximation is
//     harmless; joins pair deltas against full relations instead of
//     recomputing full×full).
//
// The interpretive Expr.eval path in expr.go is kept as the reference
// evaluator; seminaive_test.go checks the two agree on randomized programs.
type compiledExpr interface {
	full(out []Row) []Row
	delta(out []Row) []Row
	// anyDelta reports whether any store scanned by the subtree has a
	// pending delta, without materializing delta rows.
	anyDelta() bool
	// release drops what the subtree's evaluations left behind — side
	// caches, group accumulators — for its node's next run (Node.Release).
	release()
}

// cScan reads a bound store.
type cScan struct{ st *store }

// full(nil) lends the store's own rows instead of copying them: a read-only
// view, good until the store's next version bump (a remove or a clear
// rewrites the array in place; an insert only appends past the view, which
// is capped so that nothing can append into the store through it). Every
// holder — an operator for the length of its evaluation, a rule memo, a join
// side cache — reads it and keys its reuse on that version.
func (e *cScan) full(out []Row) []Row {
	if out == nil {
		return e.st.rows[:len(e.st.rows):len(e.st.rows)]
	}
	return append(out, e.st.rows...)
}

// delta copies the store's delta out, even for delta(nil): the next
// rotation swaps the delta buffer in to collect the generation after, so a
// lent one would change under its holder.
func (e *cScan) delta(out []Row) []Row { return append(out, e.st.delta...) }
func (e *cScan) anyDelta() bool        { return len(e.st.delta) > 0 }
func (e *cScan) release()              {}

// cPred is a compiled predicate: column offset resolved.
type cPred struct {
	idx  int
	op   CmpOp
	cnst Val
}

func evalPreds(preds []cPred, r Row) bool {
	for _, p := range preds {
		if !p.op.apply(r[p.idx], p.cnst) {
			return false
		}
	}
	return true
}

// cSelect filters by compiled predicates.
type cSelect struct {
	in    compiledExpr
	preds []cPred
}

func (e *cSelect) filter(out, rows []Row) []Row {
	for _, r := range rows {
		if evalPreds(e.preds, r) {
			out = append(out, r)
		}
	}
	return out
}

func (e *cSelect) full(out []Row) []Row  { return e.filter(out, e.in.full(nil)) }
func (e *cSelect) delta(out []Row) []Row { return e.filter(out, e.in.delta(nil)) }
func (e *cSelect) anyDelta() bool        { return e.in.anyDelta() }
func (e *cSelect) release()              { e.in.release() }

// cProject projects/renames columns; idx[i] < 0 selects consts[i].
type cProject struct {
	in     compiledExpr
	idx    []int
	consts []Val
	// seen dedups one evaluation's output rows; it is emptied after each,
	// keeping its capacity.
	seen store
}

func (e *cProject) project(out, rows []Row) []Row {
	defer e.seen.clear()
	for _, r := range rows {
		nr := make(Row, len(e.idx))
		for i, j := range e.idx {
			if j >= 0 {
				nr[i] = r[j]
			} else {
				nr[i] = e.consts[i]
			}
		}
		if e.seen.insert(nr) {
			out = append(out, nr)
		}
	}
	return out
}

func (e *cProject) full(out []Row) []Row  { return e.project(out, e.in.full(nil)) }
func (e *cProject) delta(out []Row) []Row { return e.project(out, e.in.delta(nil)) }
func (e *cProject) anyDelta() bool        { return e.in.anyDelta() }
func (e *cProject) release()              { e.in.release() }

// sideCache memoizes one join side's materialized rows and key-hash index,
// keyed on the version counters of the stores its subtree scans (the same
// soundness argument as rule memoization: equal versions imply identical
// contents). It keeps delta iterations of a recursive fixpoint from
// re-materializing and re-indexing the quiet side of the join every round.
type sideCache struct {
	stores []*store
	vers   []uint64
	rows   []Row
	idx    map[uint64][]Row
	valid  bool
}

// get returns the side's full rows and key-hash index, rebuilding only when
// a scanned store changed.
func (c *sideCache) get(src compiledExpr, keys []int) ([]Row, map[uint64][]Row) {
	if c.valid {
		same := true
		for i, st := range c.stores {
			if st.version != c.vers[i] {
				same = false
				break
			}
		}
		if same {
			return c.rows, c.idx
		}
	}
	c.rows = src.full(nil)
	c.idx = make(map[uint64][]Row, len(c.rows))
	for _, r := range c.rows {
		h := hashAt(r, keys)
		c.idx[h] = append(c.idx[h], r)
	}
	if c.vers == nil {
		c.vers = make([]uint64, len(c.stores))
	}
	for i, st := range c.stores {
		c.vers[i] = st.version
	}
	c.valid = true
	return c.rows, c.idx
}

// release forgets the side, keeping the version slice.
func (c *sideCache) release() {
	c.rows, c.idx, c.valid = nil, nil, false
}

// cJoin is a compiled equijoin. Output rows are the left row followed by the
// kept (non-key) right columns; the build side is chosen by cardinality at
// runtime. Join output over set inputs is itself a set (the left row embeds
// wholly and matching right rows share key columns), so no dedup pass runs.
type cJoin struct {
	l, r   compiledExpr
	lk, rk []int
	keep   []int
	// lFull/rFull cache each side's materialization for delta iterations.
	lFull, rFull sideCache
}

// emit appends the combined output row for one matching (left, right) pair.
func (e *cJoin) emit(out []Row, l, r Row) []Row {
	nr := make(Row, 0, len(l)+len(e.keep))
	nr = append(nr, l...)
	for _, i := range e.keep {
		nr = append(nr, r[i])
	}
	return append(out, nr)
}

func (e *cJoin) joinInto(out, lrows, rrows []Row) []Row {
	if len(lrows) <= len(rrows) {
		idx := make(map[uint64][]Row, len(lrows))
		for _, l := range lrows {
			h := hashAt(l, e.lk)
			idx[h] = append(idx[h], l)
		}
		for _, r := range rrows {
			for _, l := range idx[hashAt(r, e.rk)] {
				if keysSameAt(l, e.lk, r, e.rk) {
					out = e.emit(out, l, r)
				}
			}
		}
		return out
	}
	idx := make(map[uint64][]Row, len(rrows))
	for _, r := range rrows {
		h := hashAt(r, e.rk)
		idx[h] = append(idx[h], r)
	}
	for _, l := range lrows {
		for _, r := range idx[hashAt(l, e.lk)] {
			if keysSameAt(l, e.lk, r, e.rk) {
				out = e.emit(out, l, r)
			}
		}
	}
	return out
}

func (e *cJoin) full(out []Row) []Row {
	return e.joinInto(out, e.l.full(nil), e.r.full(nil))
}

func (e *cJoin) delta(out []Row) []Row {
	dl := e.l.delta(nil)
	dr := e.r.delta(nil)
	if len(dl) > 0 {
		_, rIdx := e.rFull.get(e.r, e.rk)
		for _, l := range dl {
			for _, r := range rIdx[hashAt(l, e.lk)] {
				if keysSameAt(l, e.lk, r, e.rk) {
					out = e.emit(out, l, r)
				}
			}
		}
	}
	if len(dr) > 0 {
		// Δl×Δr pairs are already covered above (full right includes Δr).
		_, lIdx := e.lFull.get(e.l, e.lk)
		for _, r := range dr {
			for _, l := range lIdx[hashAt(r, e.rk)] {
				if keysSameAt(l, e.lk, r, e.rk) {
					out = e.emit(out, l, r)
				}
			}
		}
	}
	return out
}

func (e *cJoin) anyDelta() bool { return e.l.anyDelta() || e.r.anyDelta() }

func (e *cJoin) release() {
	e.l.release()
	e.r.release()
	e.lFull.release()
	e.rFull.release()
}

// cAntiJoin emits left rows whose key has no right match. Stratification
// guarantees the right side is fully computed before any in-stratum delta
// iteration, so delta only needs to filter the left delta.
type cAntiJoin struct {
	l, r   compiledExpr
	lk, rk []int
	// rFull caches the right side's materialization and key index for
	// delta iterations, exactly as cJoin does.
	rFull sideCache
}

// rightKeys builds the distinct-key presence index of the right side.
func (e *cAntiJoin) rightKeys(rrows []Row) map[uint64][]Row {
	idx := make(map[uint64][]Row, len(rrows))
outer:
	for _, r := range rrows {
		h := hashAt(r, e.rk)
		for _, x := range idx[h] {
			if keysSameAt(r, e.rk, x, e.rk) {
				continue outer
			}
		}
		idx[h] = append(idx[h], r)
	}
	return idx
}

func (e *cAntiJoin) filter(out, lrows []Row, idx map[uint64][]Row) []Row {
outer:
	for _, l := range lrows {
		for _, r := range idx[hashAt(l, e.lk)] {
			if keysSameAt(l, e.lk, r, e.rk) {
				continue outer
			}
		}
		out = append(out, l)
	}
	return out
}

func (e *cAntiJoin) full(out []Row) []Row {
	return e.filter(out, e.l.full(nil), e.rightKeys(e.r.full(nil)))
}

func (e *cAntiJoin) anyDelta() bool { return e.l.anyDelta() || e.r.anyDelta() }

func (e *cAntiJoin) release() {
	e.l.release()
	e.r.release()
	e.rFull.release()
}

func (e *cAntiJoin) delta(out []Row) []Row {
	if e.r.anyDelta() {
		// The right side changed inside the stratum — impossible for
		// stratified instant rules, but recompute in full to stay correct.
		return e.full(out)
	}
	dl := e.l.delta(nil)
	if len(dl) == 0 {
		return out
	}
	// The cached index keeps every right row per key (not just one
	// representative like rightKeys); presence probes work the same.
	_, rIdx := e.rFull.get(e.r, e.rk)
	return e.filter(out, dl, rIdx)
}

// cAgg is one compiled aggregate: column offset resolved (-1 for Count).
type cAgg struct {
	fn  AggFunc
	col int
}

// groupAcc accumulates one group streamingly: no per-group row lists.
type groupAcc struct {
	repr Row // first row of the group, for key values
	n    int64
	agg  []Val // running Sum/Min/Max values, indexed like cGroupBy.aggs
}

// groupIndex buckets rows by a key projection in the store's shape: the
// accumulators lie flat in first-seen order, indexed by a flatIndex. It
// belongs to one operator of one node and every evaluation resets it, so
// after the first it is as large as the groups met and allocates nothing.
type groupIndex struct {
	accs  []groupAcc
	index flatIndex
	// hashShift discards low hash bits; tests raise it to force collisions.
	hashShift uint
}

// group buckets rows by their keyIdx projection (hash plus key-equality
// probe), counting cardinality per group and invoking onRow per assignment,
// and returns the accumulators in first-seen order, valid until the next
// call. Shared by the group-by and threshold operators so the probe logic
// cannot diverge.
func (g *groupIndex) group(rows []Row, keyIdx []int, onRow func(acc *groupAcc, r Row)) []groupAcc {
	ix := &g.index
	ix.reset()
	g.accs = g.accs[:0]
	for _, r := range rows {
		h := hashAt(r, keyIdx) >> g.hashShift
		ix.makeRoom()
		i := ix.home(h)
		p := ix.slots[i]
		for p != 0 && !(ix.hashes[p-1] == h && keysSameAt(r, keyIdx, g.accs[p-1].repr, keyIdx)) {
			i = ix.next(i)
			p = ix.slots[i]
		}
		if p == 0 {
			g.accs = append(g.accs, groupAcc{repr: r})
			ix.add(i, h)
			p = int32(len(g.accs))
		}
		acc := &g.accs[p-1]
		acc.n++
		if onRow != nil {
			onRow(acc, r)
		}
	}
	return g.accs
}

// release drops the last evaluation's groups and the rows they point at,
// keeping the capacity.
func (g *groupIndex) release() {
	clear(g.accs[:cap(g.accs)])
	g.accs = g.accs[:0]
	g.index.reset()
	g.hashShift = 0
}

// cGroupBy groups on key offsets and streams aggregates.
type cGroupBy struct {
	in     compiledExpr
	keyIdx []int
	aggs   []cAgg
	having []cPred // offsets into the output row
	groups groupIndex
	folds  bool // some aggregate keeps a running value: anything but Count
}

func (e *cGroupBy) full(out []Row) []Row {
	fold := func(acc *groupAcc, r Row) {
		if acc.agg == nil {
			acc.agg = make([]Val, len(e.aggs))
		}
		for i, a := range e.aggs {
			switch a.fn {
			case Sum:
				v, _ := AsInt(r[a.col])
				if acc.agg[i] == nil {
					acc.agg[i] = int64(0)
				}
				acc.agg[i] = acc.agg[i].(int64) + v
			case Min, Max:
				if acc.agg[i] == nil {
					acc.agg[i] = r[a.col]
				} else if c := compareVals(r[a.col], acc.agg[i]); (a.fn == Min && c < 0) || (a.fn == Max && c > 0) {
					acc.agg[i] = r[a.col]
				}
			}
		}
	}
	if !e.folds {
		fold = nil
	}
	for _, acc := range e.groups.group(e.in.full(nil), e.keyIdx, fold) {
		nr := make(Row, 0, len(e.keyIdx)+len(e.aggs))
		for _, j := range e.keyIdx {
			nr = append(nr, acc.repr[j])
		}
		for i, a := range e.aggs {
			if a.fn == Count {
				nr = append(nr, acc.n)
			} else {
				nr = append(nr, acc.agg[i])
			}
		}
		if evalPreds(e.having, nr) {
			out = append(out, nr)
		}
	}
	return out
}

func (e *cGroupBy) delta(out []Row) []Row {
	// Aggregation inputs sit in strictly lower strata, so their deltas are
	// empty during this stratum's iterations; if an input did change,
	// recompute the full (small) result and let head dedup absorb it.
	if !e.in.anyDelta() {
		return out
	}
	return e.full(out)
}

func (e *cGroupBy) anyDelta() bool { return e.in.anyDelta() }

func (e *cGroupBy) release() {
	e.in.release()
	e.groups.release()
}

// cThreshold is the compiled monotone counting threshold.
type cThreshold struct {
	in      compiledExpr
	keyIdx  []int
	atLeast int64
	groups  groupIndex
}

func (e *cThreshold) full(out []Row) []Row {
	for _, acc := range e.groups.group(e.in.full(nil), e.keyIdx, nil) {
		if acc.n < e.atLeast {
			continue
		}
		nr := make(Row, len(e.keyIdx))
		for i, j := range e.keyIdx {
			nr[i] = acc.repr[j]
		}
		out = append(out, nr)
	}
	return out
}

func (e *cThreshold) delta(out []Row) []Row {
	// Monotone: crossing the threshold never retracts, so a full recompute
	// is a sound (and simple) delta whenever the input grew this iteration.
	if !e.in.anyDelta() {
		return out
	}
	return e.full(out)
}

func (e *cThreshold) anyDelta() bool { return e.in.anyDelta() }

func (e *cThreshold) release() {
	e.in.release()
	e.groups.release()
}

// compileExpr lowers an expression against the node's stores, returning the
// compiled tree and its output schema.
func compileExpr(m *Module, state map[string]*store, e Expr) (compiledExpr, Schema, error) {
	switch x := e.(type) {
	case *ScanExpr:
		c := m.Collection(x.Name)
		if c == nil {
			return nil, nil, fmt.Errorf("bloom: scan of unknown collection %q", x.Name)
		}
		return &cScan{st: state[x.Name]}, c.Schema, nil

	case *ProjectExpr:
		in, inSchema, err := compileExpr(m, state, x.Input)
		if err != nil {
			return nil, nil, err
		}
		ce := &cProject{in: in, idx: make([]int, len(x.Cols)), consts: make([]Val, len(x.Cols))}
		out := make(Schema, len(x.Cols))
		for i, c := range x.Cols {
			if c.From != "" {
				j := inSchema.IndexOf(c.From)
				if j < 0 {
					return nil, nil, fmt.Errorf("bloom: project references unknown column %q (have %v)", c.From, inSchema)
				}
				ce.idx[i] = j
			} else {
				ce.idx[i] = -1
				ce.consts[i] = c.Const
			}
			out[i] = c.out()
		}
		return ce, out, nil

	case *SelectExpr:
		in, inSchema, err := compileExpr(m, state, x.Input)
		if err != nil {
			return nil, nil, err
		}
		preds, err := compilePreds(x.Preds, inSchema, "select")
		if err != nil {
			return nil, nil, err
		}
		return &cSelect{in: in, preds: preds}, inSchema, nil

	case *JoinExpr:
		l, ls, err := compileExpr(m, state, x.Left)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := compileExpr(m, state, x.Right)
		if err != nil {
			return nil, nil, err
		}
		outSchema, err := x.Schema(m)
		if err != nil {
			return nil, nil, err
		}
		ce := &cJoin{l: l, r: r}
		ce.lFull.stores = readStores(state, x.Left)
		ce.rFull.stores = readStores(state, x.Right)
		rightKey := map[string]bool{}
		for _, p := range x.On {
			ce.lk = append(ce.lk, ls.IndexOf(p[0]))
			ce.rk = append(ce.rk, rs.IndexOf(p[1]))
			rightKey[p[1]] = true
		}
		for i, c := range rs {
			if !rightKey[c] {
				ce.keep = append(ce.keep, i)
			}
		}
		return ce, outSchema, nil

	case *AntiJoinExpr:
		l, ls, err := compileExpr(m, state, x.Left)
		if err != nil {
			return nil, nil, err
		}
		r, rs, err := compileExpr(m, state, x.Right)
		if err != nil {
			return nil, nil, err
		}
		ce := &cAntiJoin{l: l, r: r}
		ce.rFull.stores = readStores(state, x.Right)
		for _, p := range x.On {
			li, ri := ls.IndexOf(p[0]), rs.IndexOf(p[1])
			if li < 0 || ri < 0 {
				return nil, nil, fmt.Errorf("bloom: antijoin key %v missing", p)
			}
			ce.lk = append(ce.lk, li)
			ce.rk = append(ce.rk, ri)
		}
		return ce, ls, nil

	case *GroupByExpr:
		in, inSchema, err := compileExpr(m, state, x.Input)
		if err != nil {
			return nil, nil, err
		}
		outSchema, err := x.Schema(m)
		if err != nil {
			return nil, nil, err
		}
		ce := &cGroupBy{in: in, keyIdx: make([]int, len(x.Keys))}
		for i, k := range x.Keys {
			ce.keyIdx[i] = inSchema.IndexOf(k)
		}
		for _, a := range x.Aggs {
			col := -1
			if a.Func != Count {
				col = inSchema.IndexOf(a.Col)
			}
			ce.aggs = append(ce.aggs, cAgg{fn: a.Func, col: col})
			ce.folds = ce.folds || a.Func != Count
		}
		ce.having, err = compilePreds(x.Having, outSchema, "having")
		if err != nil {
			return nil, nil, err
		}
		return ce, outSchema, nil

	case *ThresholdExpr:
		in, inSchema, err := compileExpr(m, state, x.Input)
		if err != nil {
			return nil, nil, err
		}
		outSchema, err := x.Schema(m)
		if err != nil {
			return nil, nil, err
		}
		ce := &cThreshold{in: in, keyIdx: make([]int, len(x.Keys)), atLeast: x.AtLeast}
		for i, k := range x.Keys {
			ce.keyIdx[i] = inSchema.IndexOf(k)
		}
		return ce, outSchema, nil

	default:
		return nil, nil, fmt.Errorf("bloom: cannot compile expression %T", e)
	}
}

// readStores resolves the distinct stores an expression subtree scans.
func readStores(state map[string]*store, e Expr) []*store {
	seen := map[string]bool{}
	var out []*store
	for _, name := range e.reads() {
		if !seen[name] {
			seen[name] = true
			out = append(out, state[name])
		}
	}
	return out
}

func compilePreds(preds []Pred, schema Schema, ctx string) ([]cPred, error) {
	out := make([]cPred, 0, len(preds))
	for _, p := range preds {
		i := schema.IndexOf(p.Col)
		if i < 0 {
			return nil, fmt.Errorf("bloom: %s references unknown column %q", ctx, p.Col)
		}
		out = append(out, cPred{idx: i, op: p.Op, cnst: p.Const})
	}
	return out, nil
}

// compiledRule is one rule bound to its head and read stores, with a
// memoized full evaluation: a rule's output is a pure function of the
// contents of the collections it reads, so if none of them mutated since the
// last full evaluation (store versions never repeat), the cached rows are
// returned without re-evaluating. This is what lets a standing query over a
// large, quiet table cost O(|result|) per tick instead of O(|table|).
type compiledRule struct {
	rule       Rule
	head       *store
	body       compiledExpr
	readStores []*store
	memoVers   []uint64
	memoRows   []Row
	memoOK     bool
}

// eval returns the rule's full result, reusing the memo when every read
// store is at its memoized version.
func (cr *compiledRule) eval() []Row {
	if cr.memoOK {
		same := true
		for i, st := range cr.readStores {
			if st.version != cr.memoVers[i] {
				same = false
				break
			}
		}
		if same {
			return cr.memoRows
		}
	}
	rows := cr.body.full(nil)
	if cr.memoVers == nil {
		cr.memoVers = make([]uint64, len(cr.readStores))
	}
	for i, st := range cr.readStores {
		cr.memoVers[i] = st.version
	}
	cr.memoRows = rows
	cr.memoOK = true
	return rows
}

// dirty reports whether any read store has a pending delta this iteration.
func (cr *compiledRule) dirty() bool {
	for _, st := range cr.readStores {
		if len(st.delta) > 0 {
			return true
		}
	}
	return false
}

// release drops the memo and what the body's operators cache.
func (cr *compiledRule) release() {
	cr.memoRows, cr.memoOK = nil, false
	cr.body.release()
}

// program is a module compiled against one node's stores.
type program struct {
	maxStratum int
	// instant[s] holds the compiled instant rules of stratum s, in module
	// rule order; heads[s] their distinct head stores (the only stores that
	// can mutate during stratum s's fixpoint).
	instant [][]*compiledRule
	heads   [][]*store
	// rest holds deferred/delete/async rules in module rule order;
	// asyncHeads the distinct heads of the async ones in name order, the
	// order a tick emits them in.
	rest       []*compiledRule
	asyncHeads []*store
}

// release readies the program for its node's next run (Node.Release).
func (p *program) release() {
	for _, rules := range p.instant {
		for _, cr := range rules {
			cr.release()
		}
	}
	for _, cr := range p.rest {
		cr.release()
	}
}

// compileProgram lowers every rule of the module against the node's stores.
func compileProgram(m *Module, state map[string]*store, strata map[string]int, maxStratum int) (*program, error) {
	p := &program{maxStratum: maxStratum}
	p.instant = make([][]*compiledRule, p.maxStratum+1)
	p.heads = make([][]*store, p.maxStratum+1)
	seenHead := make([]map[*store]bool, p.maxStratum+1)
	for i, r := range m.rules {
		body, _, err := compileExpr(m, state, r.Body)
		if err != nil {
			return nil, fmt.Errorf("bloom: module %q rule %d (%s): %w", m.Name, i, r, err)
		}
		cr := &compiledRule{rule: r, head: state[r.Head], body: body, readStores: readStores(state, r.Body)}
		if r.Op != Instant {
			p.rest = append(p.rest, cr)
			if r.Op == Async && !slices.Contains(p.asyncHeads, cr.head) {
				p.asyncHeads = append(p.asyncHeads, cr.head)
			}
			continue
		}
		s := strata[r.Head]
		p.instant[s] = append(p.instant[s], cr)
		if seenHead[s] == nil {
			seenHead[s] = map[*store]bool{}
		}
		if !seenHead[s][cr.head] {
			seenHead[s][cr.head] = true
			p.heads[s] = append(p.heads[s], cr.head)
		}
	}
	slices.SortFunc(p.asyncHeads, func(a, b *store) int { return strings.Compare(a.decl.Name, b.decl.Name) })
	return p, nil
}
