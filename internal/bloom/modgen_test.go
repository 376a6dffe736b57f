package bloom

import (
	"fmt"
	"math/rand"
)

// modGen builds random but always-schema-valid modules: every intermediate
// expression is renamed into globally fresh column names, so joins never
// collide and projections always resolve.
type modGen struct {
	r    *rand.Rand
	next int
}

func (g *modGen) fresh() string {
	g.next++
	return fmt.Sprintf("x%d", g.next)
}

func (g *modGen) val() Val {
	if g.r.Intn(2) == 0 {
		return S([]string{"a", "b", "c", "d"}[g.r.Intn(4)])
	}
	return I(int64(g.r.Intn(5)))
}

func (g *modGen) row(arity int) Row {
	r := make(Row, arity)
	for i := range r {
		r[i] = g.val()
	}
	return r
}

// expr generates a random expression over the module's collections along
// with its output schema.
func (g *modGen) expr(m *Module, colls []*Collection, depth int) (Expr, Schema) {
	if depth <= 0 || g.r.Intn(4) == 0 {
		c := colls[g.r.Intn(len(colls))]
		// Rename into fresh columns so any two subtrees compose.
		cols := make([]ColSpec, len(c.Schema))
		out := make(Schema, len(c.Schema))
		for i, col := range c.Schema {
			out[i] = g.fresh()
			cols[i] = ColAs(col, out[i])
		}
		return Project(Scan(c.Name), cols...), out
	}
	switch g.r.Intn(6) {
	case 0: // select
		in, s := g.expr(m, colls, depth-1)
		col := s[g.r.Intn(len(s))]
		return Select(in, Where(col, CmpOp(g.r.Intn(6)), g.val())), s
	case 1: // project (subset/duplicate/const)
		in, s := g.expr(m, colls, depth-1)
		nCols := 1 + g.r.Intn(len(s)+1)
		cols := make([]ColSpec, nCols)
		out := make(Schema, nCols)
		for i := range cols {
			out[i] = g.fresh()
			if g.r.Intn(5) == 0 {
				cols[i] = ConstCol(out[i], g.val())
			} else {
				cols[i] = ColAs(s[g.r.Intn(len(s))], out[i])
			}
		}
		return Project(in, cols...), out
	case 2: // join
		l, ls := g.expr(m, colls, depth-1)
		r, rs := g.expr(m, colls, depth-1)
		nKeys := 1 + g.r.Intn(2)
		var on [][2]string
		used := map[string]bool{}
		for i := 0; i < nKeys; i++ {
			rk := rs[g.r.Intn(len(rs))]
			if used[rk] {
				continue
			}
			used[rk] = true
			on = append(on, [2]string{ls[g.r.Intn(len(ls))], rk})
		}
		out := append(Schema{}, ls...)
		for _, c := range rs {
			if !used[c] {
				out = append(out, c)
			}
		}
		return Join(l, r, on...), out
	case 3: // antijoin
		l, ls := g.expr(m, colls, depth-1)
		r, rs := g.expr(m, colls, depth-1)
		return AntiJoin(l, r, [2]string{ls[g.r.Intn(len(ls))], rs[g.r.Intn(len(rs))]}), ls
	case 4: // group by
		in, s := g.expr(m, colls, depth-1)
		nKeys := 1 + g.r.Intn(len(s))
		keys := append(Schema{}, s...)
		g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		keys = keys[:nKeys]
		nAggs := 1 + g.r.Intn(2)
		var aggs []Agg
		out := append(Schema{}, keys...)
		for i := 0; i < nAggs; i++ {
			as := g.fresh()
			aggs = append(aggs, Agg{Func: AggFunc(g.r.Intn(4)), Col: s[g.r.Intn(len(s))], As: as})
			out = append(out, as)
		}
		gb := GroupBy(in, keys, aggs...)
		if g.r.Intn(2) == 0 {
			gb = gb.WithHaving(Where(out[g.r.Intn(len(out))], CmpOp(g.r.Intn(6)), g.val()))
		}
		return gb, out
	default: // monotone threshold
		in, s := g.expr(m, colls, depth-1)
		nKeys := 1 + g.r.Intn(len(s))
		keys := append(Schema{}, s...)
		g.r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		keys = keys[:nKeys]
		return MonotoneCountAtLeast(in, keys, int64(1+g.r.Intn(3))), Schema(keys)
	}
}

// adapt projects an expression onto the head's schema positionally, padding
// with constants when the body is narrower than the head.
func (g *modGen) adapt(e Expr, s Schema, head *Collection) Expr {
	cols := make([]ColSpec, len(head.Schema))
	for i, name := range head.Schema {
		if i < len(s) {
			cols[i] = ColAs(s[i], name)
		} else {
			cols[i] = ConstCol(name, g.val())
		}
	}
	return Project(e, cols...)
}

// module generates one random module; it may fail to stratify or validate
// (the caller retries with the same rng, which advances state).
func (g *modGen) module(seed int64) *Module {
	m := NewModule(fmt.Sprintf("rand%d", seed))
	m.Input("in1", "i1a", "i1b")
	m.Input("in2", "i2a", "i2b", "i2c")
	m.Table("t1", "t1a", "t1b")
	m.Table("t2", "t2a", "t2b", "t2c")
	m.Scratch("s1", "s1a", "s1b")
	m.Scratch("s2", "s2a", "s2b", "s2c")
	m.Channel("ch1", "cha", "chb")
	m.Output("o1", "oa", "ob")
	colls := m.Collections()

	heads := map[MergeOp][]string{
		Instant:  {"t1", "t2", "s1", "s2"},
		Deferred: {"t1", "t2"},
		Delete:   {"t1", "t2"},
		Async:    {"ch1", "o1"},
	}
	nRules := 4 + g.r.Intn(5)
	for i := 0; i < nRules; i++ {
		var op MergeOp
		switch p := g.r.Intn(10); {
		case p < 6:
			op = Instant
		case p < 7:
			op = Deferred
		case p < 8:
			op = Delete
		default:
			op = Async
		}
		head := m.Collection(heads[op][g.r.Intn(len(heads[op]))])
		body, s := g.expr(m, colls, 1+g.r.Intn(2))
		m.NamedRule(fmt.Sprintf("r%d", i), head.Name, op, g.adapt(body, s, head))
	}
	g.aliasRules(m)
	return m
}

// aliasRules adds the shapes a scan that lends the store's own rows has to
// survive, none of which expr draws, because it renames every leaf through
// a projection: bodies that are — or feed an operator straight from — a
// bare scan, so that eval, the rule memo, a join's side cache and the group
// index all hold a store's array while the tick goes on inserting into that
// store, deleting from it or clearing it. Two to four of:
func (g *modGen) aliasRules(m *Module) {
	shapes := []func(){
		// a head its own body scans: the fixpoint inserts into the store
		// whose rows it is ranging over;
		func() { m.NamedRule("self", "t1", Instant, Scan("t1")) },
		func() { m.NamedRule("self3", "t2", Instant, Scan("t2")) },
		// two stores feeding each other through bare scans, one of them
		// cleared every tick;
		func() {
			m.NamedRule("there", "s1", Instant, Scan("t1"))
			m.NamedRule("back", "t1", Instant, Scan("s1"))
		},
		// a memoized scan of a table that deferred inserts and deletes
		// reach between ticks;
		func() {
			m.NamedRule("keep", "t2", Deferred, Scan("in2"))
			m.NamedRule("drop", "t2", Delete, Scan("s2"))
			m.NamedRule("view", "s2", Instant, Scan("t2"))
		},
		func() { m.NamedRule("drop1", "t1", Delete, Scan("in1")) },
		// grouping, counting and joining straight off the stores.
		func() {
			m.NamedRule("sizes", "s1", Instant,
				GroupBy(Scan("t2"), []string{"t2a"}, Agg{Func: Count, As: "n"}))
		},
		func() {
			m.NamedRule("often", "o1", Async,
				MonotoneCountAtLeast(Scan("t1"), []string{"t1a", "t1b"}, 1))
		},
		func() {
			m.NamedRule("pairs", "ch1", Async,
				Project(Join(Scan("t1"), Scan("t2"), [2]string{"t1a", "t2a"}), Col("t1b"), Col("t2c")))
		},
	}
	g.r.Shuffle(len(shapes), func(i, j int) { shapes[i], shapes[j] = shapes[j], shapes[i] })
	for _, add := range shapes[:2+g.r.Intn(3)] {
		add()
	}
}
