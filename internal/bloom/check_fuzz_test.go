package bloom

import (
	"math/rand"
	"testing"
)

// FuzzModuleCheck holds the three readers of a module to one verdict. It
// draws a modGen module that validates and stratifies, then renames one name
// in a rule body — a scanned collection, a projected column, a predicate
// column, or a key or aggregated column — to a name of the module or to an
// undeclared one. Validate, NewNode and Analyze must all accept the module
// or all refuse it with Validate's error, and a node built from it must
// tick: compilation panics on a name Validate let through.
func FuzzModuleCheck(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint16(seed*7), uint16(seed*13))
	}
	f.Fuzz(func(t *testing.T, seed int64, site, name uint16) {
		g := &modGen{r: rand.New(rand.NewSource(seed))}
		var m *Module
		for attempt := 0; attempt < 25 && m == nil; attempt++ {
			if c := g.module(seed); c.Validate() == nil {
				if _, _, err := stratify(c); err == nil {
					m = c
				}
			}
		}
		if m == nil {
			return
		}
		sites := nameSites(m)
		pool := []string{"nope"}
		for _, c := range m.Collections() {
			pool = append(append(pool, c.Name), c.Schema...)
		}
		for _, s := range sites {
			pool = append(pool, *s)
		}
		at, to := sites[int(site)%len(sites)], pool[int(name)%len(pool)]
		from := *at
		*at = to

		verr := m.Validate()
		if verr == nil {
			if _, _, err := stratify(m); err != nil {
				// A renamed scan closed a negative cycle: NewNode
				// refuses the module for its strata, not for a name.
				return
			}
		}
		n, nerr := NewNode("fuzz", m)
		_, aerr := Analyze(m)
		if verr != nil {
			if nerr == nil || nerr.Error() != verr.Error() || aerr == nil || aerr.Error() != verr.Error() {
				t.Fatalf("%q → %q: Validate: %v; NewNode: %v; Analyze: %v", from, to, verr, nerr, aerr)
			}
			return
		}
		if nerr != nil || aerr != nil {
			t.Fatalf("%q → %q: Validate accepts; NewNode: %v; Analyze: %v", from, to, nerr, aerr)
		}
		if err := n.Deliver("in1", g.row(2)); err != nil {
			t.Fatal(err)
		}
		if err := n.Deliver("in2", g.row(3)); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
	})
}

// nameSites points at every name the module's rule bodies resolve, in rule
// order.
func nameSites(m *Module) []*string {
	var sites []*string
	keys := func(on [][2]string) {
		for i := range on {
			sites = append(sites, &on[i][0], &on[i][1])
		}
	}
	preds := func(ps []Pred) {
		for i := range ps {
			sites = append(sites, &ps[i].Col)
		}
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case *ScanExpr:
			sites = append(sites, &x.Name)
		case *ProjectExpr:
			for i := range x.Cols {
				if x.Cols[i].From != "" {
					sites = append(sites, &x.Cols[i].From)
				}
			}
			walk(x.Input)
		case *SelectExpr:
			preds(x.Preds)
			walk(x.Input)
		case *JoinExpr:
			keys(x.On)
			walk(x.Left)
			walk(x.Right)
		case *AntiJoinExpr:
			keys(x.On)
			walk(x.Left)
			walk(x.Right)
		case *GroupByExpr:
			for i := range x.Keys {
				sites = append(sites, &x.Keys[i])
			}
			for i := range x.Aggs {
				sites = append(sites, &x.Aggs[i].Col)
			}
			preds(x.Having)
			walk(x.Input)
		case *ThresholdExpr:
			for i := range x.Keys {
				sites = append(sites, &x.Keys[i])
			}
			walk(x.Input)
		}
	}
	for _, r := range m.rules {
		walk(r.Body)
	}
	return sites
}
