package dataflow_test

// BLZ006 against the analyzer's cycles (Section V-A, footnote 3): lint
// warns about the very groups the collapse merges, and about no others.

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"blazes/internal/dataflow"
	"blazes/internal/spec"
	"blazes/internal/topogen"
)

// fixtureGraphs builds the spec at path once per variant of every
// component that has variants, the others pinned to their first, as
// `blazes lint` sweeps a spec.
func fixtureGraphs(t *testing.T, path string) map[string]*dataflow.Graph {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	first := map[string]string{}
	for _, c := range cfg.Components {
		if len(c.VariantOrder) > 0 {
			first[c.Name] = c.VariantOrder[0]
		}
	}
	selections := map[string]map[string]string{"": first}
	for _, c := range cfg.Components {
		for _, v := range c.VariantOrder {
			sel := maps.Clone(first)
			sel[c.Name] = v
			selections[c.Name+"="+v] = sel
		}
	}
	graphs := map[string]*dataflow.Graph{}
	for name, sel := range selections {
		g, err := cfg.Graph(path, spec.BuildOptions{Variants: sel})
		if err != nil {
			t.Fatal(err)
		}
		graphs[path+" "+name] = g
	}
	return graphs
}

// cycleWarnings returns the BLZ006 findings of g.
func cycleWarnings(g *dataflow.Graph) []dataflow.LintDiagnostic {
	var out []dataflow.LintDiagnostic
	for _, d := range dataflow.LintGraph(g) {
		if d.Code == dataflow.CodeUnsealedCycle {
			out = append(out, d)
		}
	}
	return out
}

// TestLintAdNetworkHasNoCycleWarning: footnote 3's own example. Cache
// lies on a cycle only through its confluent gossip self-edge, and Cache
// and Report form none, so no standing query of the ad network draws a
// BLZ006 — neither on the white-box graph nor on the spec.
func TestLintAdNetworkHasNoCycleWarning(t *testing.T) {
	graphs := fixtureGraphs(t, "../spec/testdata/adreport.blazes")
	for _, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.WINDOW, dataflow.CAMPAIGN} {
		graphs["adtrack.Graph "+string(q)] = adNetwork(t, q)
	}
	for name, g := range graphs {
		if ds := cycleWarnings(g); len(ds) > 0 {
			t.Errorf("%s: %v", name, ds)
		}
	}
}

// ifaceOracle is an interface graph built from a graph's exported fields
// alone: one node per (component, interface, direction), an edge per path
// and per internal stream. It answers "on a cycle" by search, independently
// of the analyzer's strongly connected components.
type ifaceOracle struct {
	id   map[string]int
	succ [][]int
}

func ifaceNode(comp, iface string, out bool) string {
	return fmt.Sprintf("%s.%s/%t", comp, iface, out)
}

func newIfaceOracle(g *dataflow.Graph) *ifaceOracle {
	o := &ifaceOracle{id: map[string]int{}}
	edge := func(a, b string) {
		for _, k := range []string{a, b} {
			if _, ok := o.id[k]; !ok {
				o.id[k] = len(o.succ)
				o.succ = append(o.succ, nil)
			}
		}
		o.succ[o.id[a]] = append(o.succ[o.id[a]], o.id[b])
	}
	for _, c := range g.Components() {
		for _, p := range c.Paths {
			edge(ifaceNode(c.Name, p.From, false), ifaceNode(c.Name, p.To, true))
		}
	}
	for _, s := range g.Streams() {
		if !s.IsSource() && !s.IsSink() {
			edge(ifaceNode(s.FromComp, s.FromIface, true), ifaceNode(s.ToComp, s.ToIface, false))
		}
	}
	return o
}

// reaches reports whether node b is reachable from node a.
func (o *ifaceOracle) reaches(a, b string) bool {
	from, to := o.id[a], o.id[b]
	seen := make([]bool, len(o.succ))
	queue := []int{from}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range o.succ[v] {
			if w == to {
				return true
			}
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

// collapseGroups lists the groups of components the analysis collapses,
// each in name order: a supernode's members, and every other component on
// a cycle alone.
func collapseGroups(t *testing.T, g *dataflow.Graph) [][]string {
	t.Helper()
	cyclic := dataflow.CyclicOf(t, g)
	var groups [][]string
	merged := map[string]bool{}
	for _, c := range dataflow.CollapsedOf(t, g).Components() {
		if members, ok := strings.CutPrefix(c.Name, "scc+"); ok {
			group := strings.Split(members, "+")
			for _, m := range group {
				merged[m] = true
			}
			groups = append(groups, group)
		}
	}
	for name := range cyclic {
		if !merged[name] {
			groups = append(groups, []string{name})
		}
	}
	return groups
}

// wantCycleWarnings states BLZ006 from the collapse's groups and the
// oracle: a group is reported when a path on one of its cycles is
// order-sensitive, no sealed stream lies on a cycle of it, and no member is
// coordinated. Each is rendered "Subject {members}".
func wantCycleWarnings(t *testing.T, g *dataflow.Graph) []string {
	t.Helper()
	o := newIfaceOracle(g)
	var want []string
	for _, group := range collapseGroups(t, g) {
		orderSensitive, covered := false, false
		for _, name := range group {
			c := g.Lookup(name)
			covered = covered || c.Coordination != dataflow.CoordNone
			for _, p := range c.Paths {
				if p.Ann.OrderSensitive() && o.reaches(ifaceNode(name, p.To, true), ifaceNode(name, p.From, false)) {
					orderSensitive = true
				}
			}
		}
		for _, s := range g.Streams() {
			if s.IsSource() || s.IsSink() || s.Seal.IsEmpty() || !slices.Contains(group, s.ToComp) {
				continue
			}
			if o.reaches(ifaceNode(s.ToComp, s.ToIface, false), ifaceNode(s.FromComp, s.FromIface, true)) {
				covered = true
			}
		}
		if orderSensitive && !covered {
			want = append(want, group[0]+" {"+strings.Join(group, ", ")+"}")
		}
	}
	slices.Sort(want)
	return want
}

// TestLintCycleWarningsAreTheCollapse holds BLZ006 to the analyzer's
// cycles on generated topologies and on both fixtures under every variant:
// every member it names lies on an interface-level cycle, and it reports
// each group the collapse merges exactly once, with the collapse's members,
// when the group qualifies — and no other.
func TestLintCycleWarningsAreTheCollapse(t *testing.T) {
	graphs := fixtureGraphs(t, "../spec/testdata/adreport.blazes")
	for name, g := range fixtureGraphs(t, "../spec/testdata/wordcount.blazes") {
		graphs[name] = g
	}
	sizes := []int{20, 200, 2000}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 4; seed++ {
			graphs[fmt.Sprintf("topogen.Default(%d, %d)", n, seed)] = generated(t, n, seed)
		}
	}
	warned := 0
	for name, g := range graphs {
		cyclic := dataflow.CyclicOf(t, g)
		var got []string
		for _, d := range cycleWarnings(g) {
			_, rest, _ := strings.Cut(d.Message, "{")
			members, _, _ := strings.Cut(rest, "}")
			for _, m := range strings.Split(members, ", ") {
				if !cyclic[m] {
					t.Errorf("%s: %s names %s, which lies on no cycle", name, d.Subject, m)
				}
			}
			got = append(got, d.Subject+" {"+members+"}")
		}
		slices.Sort(got)
		if want := wantCycleWarnings(t, g); !slices.Equal(got, want) {
			t.Errorf("%s: BLZ006 reports\n  %v\nwant\n  %v", name, got, want)
		}
		warned += len(got)
	}
	if warned == 0 {
		t.Error("no graph drew a BLZ006; the comparison is vacuous")
	}
}

// BenchmarkLintGraph lints the 10k-component reference topology the
// analyze-oneshot benchmark lints in every op, and reports the time and
// the bytes of one call:
// go test -run '^$' -bench LintGraph ./internal/dataflow
func BenchmarkLintGraph(b *testing.B) {
	res, err := topogen.Generate(topogen.Default(10000, 8))
	if err != nil {
		b.Fatal(err)
	}
	g, err := res.Graph()
	if err != nil {
		b.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for b.Loop() {
		dataflow.LintGraph(g)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(b.N)
	b.ReportMetric(float64(elapsed.Microseconds())/1e3/n, "ms/call")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/1e6/n, "MB/call")
}
