package bloom

import (
	"fmt"
	"sort"
)

// Expr is a relational-algebra expression over the module's collections.
// The AST is deliberately structural (no opaque functions) so the white-box
// analyzer can classify monotonicity, extract partition subscripts, and
// trace column lineage.
//
// Schema is the one place a name in a rule body is resolved: each
// operator's Schema checks every collection and column it names, so
// Module.Validate, which takes the schema of every rule body, refuses any
// name that does not resolve.
//
// Each expression carries two evaluation paths: the interpretive eval below
// (the reference evaluator — it re-resolves schemas on every call and is
// what seminaive_test.go's differential harness runs), and a compiled
// counterpart in compile.go that Node.Tick actually executes after NewNode
// reads every column offset once from the checked schemas.
type Expr interface {
	// Schema returns the expression's output columns, or an error naming
	// the first collection or column that does not resolve.
	Schema(m *Module) (Schema, error)
	// eval computes the rows under the given state reader (reference path).
	eval(m *Module, st stateReader) ([]Row, error)
}

// stateReader supplies collection contents during reference evaluation.
type stateReader interface {
	rowsOf(name string) []Row
}

// ScanExpr reads a collection.
type ScanExpr struct{ Name string }

// Scan reads every row of the named collection.
func Scan(name string) *ScanExpr { return &ScanExpr{Name: name} }

// Schema implements Expr.
func (e *ScanExpr) Schema(m *Module) (Schema, error) {
	c := m.Collection(e.Name)
	if c == nil {
		return nil, fmt.Errorf("bloom: scan of unknown collection %q", e.Name)
	}
	return c.Schema, nil
}

func (e *ScanExpr) eval(_ *Module, st stateReader) ([]Row, error) { return st.rowsOf(e.Name), nil }

// ColSpec projects one output column: either a copy of an input column
// (identity lineage — injective) or a constant.
type ColSpec struct {
	// From is the source column name (identity projection) when non-empty.
	From string
	// As is the output column name; defaults to From.
	As string
	// Const is the constant value when From is empty.
	Const Val
}

// Col projects column name unchanged.
func Col(name string) ColSpec { return ColSpec{From: name, As: name} }

// ColAs projects column from under a new name.
func ColAs(from, as string) ColSpec { return ColSpec{From: from, As: as} }

// ConstCol emits a constant column.
func ConstCol(as string, v Val) ColSpec { return ColSpec{As: as, Const: v} }

func (c ColSpec) out() string {
	if c.As != "" {
		return c.As
	}
	return c.From
}

// ProjectExpr projects/renames columns.
type ProjectExpr struct {
	Input Expr
	Cols  []ColSpec
}

// Project applies a projection.
func Project(input Expr, cols ...ColSpec) *ProjectExpr {
	return &ProjectExpr{Input: input, Cols: cols}
}

// Schema implements Expr.
func (e *ProjectExpr) Schema(m *Module) (Schema, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	out := make(Schema, len(e.Cols))
	for i, c := range e.Cols {
		if c.From != "" && !in.Contains(c.From) {
			return nil, fmt.Errorf("bloom: project references unknown column %q (have %v)", c.From, in)
		}
		out[i] = c.out()
	}
	if err := checkNoDupCols(out, "project", ""); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *ProjectExpr) eval(m *Module, st stateReader) ([]Row, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	rows, err := e.Input.eval(m, st)
	if err != nil {
		return nil, err
	}
	idx := make([]int, len(e.Cols))
	for i, c := range e.Cols {
		if c.From != "" {
			idx[i] = in.IndexOf(c.From)
		} else {
			idx[i] = -1
		}
	}
	out := make([]Row, 0, len(rows))
	for _, r := range rows {
		nr := make(Row, len(e.Cols))
		for i, c := range e.Cols {
			if idx[i] >= 0 {
				nr[i] = r[idx[i]]
			} else {
				nr[i] = c.Const
			}
		}
		out = append(out, nr)
	}
	return dedup(out), nil
}

// CmpOp is a comparison operator for selections and having clauses.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	default:
		return ">="
	}
}

func (op CmpOp) apply(a, b Val) bool {
	c := compareVals(a, b)
	switch op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	case GT:
		return c > 0
	default:
		return c >= 0
	}
}

// Pred is a structural predicate comparing a column with a constant.
type Pred struct {
	Col   string
	Op    CmpOp
	Const Val
}

// Where builds a predicate.
func Where(col string, op CmpOp, v Val) Pred { return Pred{Col: col, Op: op, Const: v} }

// SelectExpr filters rows by conjunctive predicates.
type SelectExpr struct {
	Input Expr
	Preds []Pred
}

// Select filters rows.
func Select(input Expr, preds ...Pred) *SelectExpr {
	return &SelectExpr{Input: input, Preds: preds}
}

// Schema implements Expr: the input's columns, which every predicate names.
func (e *SelectExpr) Schema(m *Module) (Schema, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	if err := checkPredCols(e.Preds, in, "select"); err != nil {
		return nil, err
	}
	return in, nil
}

// checkPredCols checks that every predicate compares a column of s.
func checkPredCols(preds []Pred, s Schema, ctx string) error {
	for _, p := range preds {
		if !s.Contains(p.Col) {
			return fmt.Errorf("bloom: %s references unknown column %q (have %v)", ctx, p.Col, s)
		}
	}
	return nil
}

func (e *SelectExpr) eval(m *Module, st stateReader) ([]Row, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	rows, err := e.Input.eval(m, st)
	if err != nil {
		return nil, err
	}
	for _, p := range e.Preds {
		if !in.Contains(p.Col) {
			return nil, fmt.Errorf("bloom: select references unknown column %q", p.Col)
		}
	}
	var out []Row
	for _, r := range rows {
		ok := true
		for _, p := range e.Preds {
			if !p.Op.apply(r[in.IndexOf(p.Col)], p.Const) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// JoinExpr is an equijoin. Output schema is the left schema followed by the
// right columns not used as join keys (natural-join style), so identity
// lineage is preserved for every surviving column.
type JoinExpr struct {
	Left, Right Expr
	// On pairs left and right join columns.
	On [][2]string
}

// Join builds an equijoin; on entries are {leftCol, rightCol}.
func Join(left, right Expr, on ...[2]string) *JoinExpr {
	return &JoinExpr{Left: left, Right: right, On: on}
}

// Schema implements Expr.
func (e *JoinExpr) Schema(m *Module) (Schema, error) {
	ls, err := e.Left.Schema(m)
	if err != nil {
		return nil, err
	}
	rs, err := e.Right.Schema(m)
	if err != nil {
		return nil, err
	}
	if err := checkKeys(e.On, ls, rs, "join"); err != nil {
		return nil, err
	}
	rightKey := map[string]bool{}
	for _, p := range e.On {
		rightKey[p[1]] = true
	}
	out := append(Schema{}, ls...)
	for _, c := range rs {
		if rightKey[c] {
			continue
		}
		if out.Contains(c) {
			return nil, fmt.Errorf("bloom: join would duplicate column %q; rename one side", c)
		}
		out = append(out, c)
	}
	return out, nil
}

func (e *JoinExpr) eval(m *Module, st stateReader) ([]Row, error) {
	ls, err := e.Left.Schema(m)
	if err != nil {
		return nil, err
	}
	rs, err := e.Right.Schema(m)
	if err != nil {
		return nil, err
	}
	if _, err := e.Schema(m); err != nil {
		return nil, err
	}
	lrows, err := e.Left.eval(m, st)
	if err != nil {
		return nil, err
	}
	rrows, err := e.Right.eval(m, st)
	if err != nil {
		return nil, err
	}
	rightKey := map[string]bool{}
	var lk, rk []int
	for _, p := range e.On {
		lk = append(lk, ls.IndexOf(p[0]))
		rk = append(rk, rs.IndexOf(p[1]))
		rightKey[p[1]] = true
	}
	// Hash the right side on its key.
	idx := map[string][]Row{}
	for _, r := range rrows {
		idx[joinKey(r, rk)] = append(idx[joinKey(r, rk)], r)
	}
	var keep []int
	for i, c := range rs {
		if !rightKey[c] {
			keep = append(keep, i)
		}
	}
	var out []Row
	for _, l := range lrows {
		for _, r := range idx[joinKey(l, lk)] {
			nr := make(Row, 0, len(l)+len(keep))
			nr = append(nr, l...)
			for _, i := range keep {
				nr = append(nr, r[i])
			}
			out = append(out, nr)
		}
	}
	return dedup(out), nil
}

// checkKeys checks that every {left, right} key pair of a join or an
// antijoin names a column of each side.
func checkKeys(on [][2]string, ls, rs Schema, ctx string) error {
	for _, p := range on {
		if !ls.Contains(p[0]) {
			return fmt.Errorf("bloom: %s key %q missing from left schema %v", ctx, p[0], ls)
		}
		if !rs.Contains(p[1]) {
			return fmt.Errorf("bloom: %s key %q missing from right schema %v", ctx, p[1], rs)
		}
	}
	return nil
}

func joinKey(r Row, idx []int) string {
	k := make(Row, len(idx))
	for i, j := range idx {
		k[i] = r[j]
	}
	return k.key()
}

// AntiJoinExpr emits left rows with no matching right row (SQL NOT IN) —
// a nonmonotonic operation: growing the right side can retract outputs.
type AntiJoinExpr struct {
	Left, Right Expr
	On          [][2]string
}

// AntiJoin builds the nonmonotonic not-in operator.
func AntiJoin(left, right Expr, on ...[2]string) *AntiJoinExpr {
	return &AntiJoinExpr{Left: left, Right: right, On: on}
}

// Schema implements Expr: the left schema, once both sides resolve and
// hold their keys.
func (e *AntiJoinExpr) Schema(m *Module) (Schema, error) {
	ls, err := e.Left.Schema(m)
	if err != nil {
		return nil, err
	}
	rs, err := e.Right.Schema(m)
	if err != nil {
		return nil, err
	}
	if err := checkKeys(e.On, ls, rs, "antijoin"); err != nil {
		return nil, err
	}
	return ls, nil
}

func (e *AntiJoinExpr) eval(m *Module, st stateReader) ([]Row, error) {
	ls, err := e.Left.Schema(m)
	if err != nil {
		return nil, err
	}
	rs, err := e.Right.Schema(m)
	if err != nil {
		return nil, err
	}
	lrows, err := e.Left.eval(m, st)
	if err != nil {
		return nil, err
	}
	rrows, err := e.Right.eval(m, st)
	if err != nil {
		return nil, err
	}
	var lk, rk []int
	for _, p := range e.On {
		li, ri := ls.IndexOf(p[0]), rs.IndexOf(p[1])
		if li < 0 || ri < 0 {
			return nil, fmt.Errorf("bloom: antijoin key %v missing", p)
		}
		lk = append(lk, li)
		rk = append(rk, ri)
	}
	present := map[string]bool{}
	for _, r := range rrows {
		present[joinKey(r, rk)] = true
	}
	var out []Row
	for _, l := range lrows {
		if !present[joinKey(l, lk)] {
			out = append(out, l)
		}
	}
	return out, nil
}

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota
	Sum
	Min
	Max
)

func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	default:
		return "max"
	}
}

// Agg is one aggregate column.
type Agg struct {
	Func AggFunc
	// Col is the aggregated column (ignored for Count).
	Col string
	// As names the output column.
	As string
}

// GroupByExpr groups on key columns and computes aggregates — a
// nonmonotonic operation: aggregate values change as inputs grow.
type GroupByExpr struct {
	Input Expr
	Keys  []string
	Aggs  []Agg
	// Having filters groups after aggregation (on key or agg columns).
	Having []Pred
}

// GroupBy builds an aggregation.
func GroupBy(input Expr, keys []string, aggs ...Agg) *GroupByExpr {
	return &GroupByExpr{Input: input, Keys: keys, Aggs: aggs}
}

// WithHaving adds group filters.
func (e *GroupByExpr) WithHaving(preds ...Pred) *GroupByExpr {
	e.Having = append(e.Having, preds...)
	return e
}

// Schema implements Expr: keys then aggregate columns, which the having
// clause names.
func (e *GroupByExpr) Schema(m *Module) (Schema, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	out := make(Schema, 0, len(e.Keys)+len(e.Aggs))
	for _, k := range e.Keys {
		if !in.Contains(k) {
			return nil, fmt.Errorf("bloom: group key %q missing from %v", k, in)
		}
		out = append(out, k)
	}
	for _, a := range e.Aggs {
		if a.Func != Count && !in.Contains(a.Col) {
			return nil, fmt.Errorf("bloom: aggregate column %q missing from %v", a.Col, in)
		}
		out = append(out, a.As)
	}
	if err := checkNoDupCols(out, "group by", ""); err != nil {
		return nil, err
	}
	if err := checkPredCols(e.Having, out, "having"); err != nil {
		return nil, err
	}
	return out, nil
}

func (e *GroupByExpr) eval(m *Module, st stateReader) ([]Row, error) {
	in, err := e.Input.Schema(m)
	if err != nil {
		return nil, err
	}
	outSchema, err := e.Schema(m)
	if err != nil {
		return nil, err
	}
	rows, err := e.Input.eval(m, st)
	if err != nil {
		return nil, err
	}
	keyIdx := make([]int, len(e.Keys))
	for i, k := range e.Keys {
		keyIdx[i] = in.IndexOf(k)
	}
	groups := map[string][]Row{}
	var order []string
	for _, r := range rows {
		k := joinKey(r, keyIdx)
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(order)
	var out []Row
	for _, k := range order {
		grp := groups[k]
		nr := make(Row, 0, len(e.Keys)+len(e.Aggs))
		for _, i := range keyIdx {
			nr = append(nr, grp[0][i])
		}
		for _, a := range e.Aggs {
			nr = append(nr, applyAgg(a, in, grp))
		}
		ok := true
		for _, p := range e.Having {
			i := outSchema.IndexOf(p.Col)
			if i < 0 {
				return nil, fmt.Errorf("bloom: having references unknown column %q", p.Col)
			}
			if !p.Op.apply(nr[i], p.Const) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, nr)
		}
	}
	return out, nil
}

func applyAgg(a Agg, in Schema, grp []Row) Val {
	switch a.Func {
	case Count:
		return int64(len(grp))
	case Sum:
		var s int64
		i := in.IndexOf(a.Col)
		for _, r := range grp {
			if v, ok := AsInt(r[i]); ok {
				s += v
			}
		}
		return s
	case Min, Max:
		i := in.IndexOf(a.Col)
		best := grp[0][i]
		for _, r := range grp[1:] {
			c := compareVals(r[i], best)
			if (a.Func == Min && c < 0) || (a.Func == Max && c > 0) {
				best = r[i]
			}
		}
		return best
	default:
		return nil
	}
}

func dedup(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := r.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}
