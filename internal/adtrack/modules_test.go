package adtrack

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blazes/internal/bloom"
	"blazes/internal/core"
	"blazes/internal/dataflow"
	"blazes/internal/fd"
	"blazes/internal/spec"
)

// TestWhiteBoxExtractionMatchesPaperAnnotations reproduces the Section
// VI-B1 annotation file automatically: the Bloom analyzer must derive the
// same C.O.W.R. labels the paper's authors wrote by hand.
func TestWhiteBoxExtractionMatchesPaperAnnotations(t *testing.T) {
	tests := []struct {
		query   dataflow.AdQuery
		wantReq string
		wantClk string
	}{
		{dataflow.THRESH, "CR", "CW"},
		{dataflow.POOR, "OR(id)", "CW"},
		{dataflow.WINDOW, "OR(id,window)", "CW"},
		{dataflow.CAMPAIGN, "OR(campaign,id)", "CW"},
	}
	for _, tt := range tests {
		t.Run(string(tt.query), func(t *testing.T) {
			mod, err := ReportModule(tt.query, 100)
			if err != nil {
				t.Fatal(err)
			}
			a, err := bloom.Analyze(mod)
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for _, p := range a.Paths {
				got[p.From+"→"+p.To] = p.Ann.String()
			}
			if got["request→response"] != tt.wantReq {
				t.Errorf("request→response = %s, want %s", got["request→response"], tt.wantReq)
			}
			if got["click→response"] != tt.wantClk {
				t.Errorf("click→response = %s, want %s", got["click→response"], tt.wantClk)
			}
		})
	}
}

func TestWhiteBoxCacheMatchesPaper(t *testing.T) {
	mod, err := CacheModule()
	if err != nil {
		t.Fatal(err)
	}
	a, err := bloom.Analyze(mod)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"request→response_out":     "CR",
		"response_in→response_out": "CW",
		"request→request_out":      "CR",
	}
	got := map[string]string{}
	for _, p := range a.Paths {
		got[p.From+"→"+p.To] = p.Ann.String()
	}
	for path, ann := range want {
		if got[path] != ann {
			t.Errorf("%s = %s, want %s", path, got[path], ann)
		}
	}
	if _, spurious := got["response_in→request_out"]; spurious {
		t.Error("footnote 3 violated: response→request path must not exist")
	}
}

// TestWhiteBoxGraphVerdicts runs the full Blazes analysis over the
// automatically annotated dataflow and reproduces the Section VI-B2
// derivations with zero manual annotations: each row's verdict, and where
// given Report's output label and the steps the paper's derivation takes.
func TestWhiteBoxGraphVerdicts(t *testing.T) {
	tests := []struct {
		query   dataflow.AdQuery
		seal    []string
		verdict core.Label
		report  string               // Report's output label; "" leaves it unchecked
		steps   map[string]core.Step // a step each named component's derivation holds
	}{
		// THRESH is confluent: Async end to end without coordination.
		{dataflow.THRESH, nil, core.Async, "Async", nil},
		// POOR: the request path OR_id over Async reads nondeterministically,
		// unprotected on a replicated Report ⇒ Inst; the Cache's CW path
		// turns Inst into Taint, replicated ⇒ Diverge.
		{dataflow.POOR, nil, core.Diverge, "Inst", map[string]core.Step{
			"Report": {In: core.Async, Ann: core.ORGate("id"), Rule: core.Rule1, Out: core.NDRead("id")},
			"Cache":  {In: core.Inst, Ann: core.CW, Rule: core.Rule3, Out: core.Taint},
		}},
		// POOR's gate {id} is incompatible with a campaign seal (Section V-A1).
		{dataflow.POOR, []string{ColCampaign}, core.Diverge, "", nil},
		// CAMPAIGN's gate {id,campaign} is compatible: the NDRead is protected.
		{dataflow.CAMPAIGN, []string{ColCampaign}, core.Async, "Async", nil},
		// WINDOW sealed on window is Async (Section VI-B2, last sentence);
		// without punctuations it races queries against clicks like POOR.
		{dataflow.WINDOW, []string{ColWindow}, core.Async, "", nil},
		{dataflow.WINDOW, nil, core.Diverge, "", nil},
	}
	for _, tt := range tests {
		name := string(tt.query)
		if len(tt.seal) > 0 {
			name += "+seal"
		}
		t.Run(name, func(t *testing.T) {
			g, err := Graph(tt.query, tt.seal...)
			if err != nil {
				t.Fatal(err)
			}
			a, err := dataflow.Analyze(g)
			if err != nil {
				t.Fatal(err)
			}
			if !a.Verdict.Equal(tt.verdict) {
				t.Errorf("verdict = %s, want %s\n%s", a.Verdict, tt.verdict, a.Explain())
			}
			if tt.report != "" {
				ca, _ := a.Component("Report")
				if got := ca.Output("response").Reconciliation.Output; got.String() != tt.report {
					t.Errorf("Report output = %s, want %s", got, tt.report)
				}
			}
			for comp, want := range tt.steps {
				ca, ok := a.Component(comp)
				if !ok {
					t.Fatalf("no analysis for component %q", comp)
				}
				steps := slices.Collect(ca.Steps())
				if !slices.ContainsFunc(steps, func(st core.Step) bool { return st.String() == want.String() }) {
					t.Errorf("component %s: missing step %q; have %v", comp, want, steps)
				}
			}
		})
	}
}

// TestWhiteBoxGraphMatchesSpec holds the two sources of the ad network to
// each other: adreport.blazes, whose annotations restate Section VI-B1, and
// Graph, whose annotations bloom.Analyze extracts from the Bloom rules. The
// two name Cache's interfaces differently (request and response, against
// request_out, response_in and response_out), so they are compared on what
// names no interface: the verdict, every stream's label, and each
// synthesized strategy's component, mechanism, seal keys and inputs.
func TestWhiteBoxGraphMatchesSpec(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "spec", "testdata", "adreport.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	outcome := func(t *testing.T, g *dataflow.Graph) []string {
		t.Helper()
		a, err := dataflow.Analyze(g)
		if err != nil {
			t.Fatal(err)
		}
		out := []string{"verdict " + a.Verdict.String()}
		for s, l := range a.Streams() {
			out = append(out, "stream "+s.Name+" "+l.String())
		}
		for _, st := range dataflow.Synthesize(a, dataflow.SynthesisOptions{}) {
			out = append(out, fmt.Sprintf("strategy %s %s %v %v", st.Component, st.Mechanism, st.SealKeys, st.Inputs))
		}
		return out
	}
	for _, q := range []dataflow.AdQuery{dataflow.THRESH, dataflow.POOR, dataflow.WINDOW, dataflow.CAMPAIGN} {
		for _, seal := range [][]string{nil, {ColCampaign}, {ColID}, {ColWindow}, {ColID, ColCampaign}} {
			t.Run(string(q)+"/seal="+cmp.Or(strings.Join(seal, "+"), "none"), func(t *testing.T) {
				want, err := cfg.Graph("adreport", spec.BuildOptions{Variants: map[string]string{"Report": string(q)}})
				if err != nil {
					t.Fatal(err)
				}
				if len(seal) > 0 {
					want.Stream("clicks").Seal = fd.NewAttrSet(seal...)
				}
				got, err := Graph(q, seal...)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := outcome(t, got), outcome(t, want); !slices.Equal(g, w) {
					t.Errorf("white-box graph and spec text disagree\n got: %s\nwant: %s",
						strings.Join(g, "; "), strings.Join(w, "; "))
				}
			})
		}
	}
}

// TestWhiteBoxSynthesisSelectsSealForCampaign: end-to-end white box —
// modules in, seal-based strategy out.
func TestWhiteBoxSynthesisSelectsSealForCampaign(t *testing.T) {
	g, err := Graph(dataflow.CAMPAIGN, ColCampaign)
	if err != nil {
		t.Fatal(err)
	}
	a, err := dataflow.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	sts := dataflow.Synthesize(a, dataflow.SynthesisOptions{})
	foundSeal := false
	for _, st := range sts {
		if st.Component == "Report" && st.Mechanism == dataflow.CoordSealed {
			foundSeal = true
		}
	}
	if !foundSeal {
		t.Errorf("strategies = %v, want seal-based coordination at Report", sts)
	}
}

// TestReportModuleAnswersQueries sanity-checks the runtime behaviour of
// each query against a tiny hand-computed log.
func TestReportModuleAnswersQueries(t *testing.T) {
	clicks := []bloom.Row{
		{bloom.S("ad1"), bloom.S("c1"), bloom.S("w1"), bloom.S("s1"), bloom.I(0)},
		{bloom.S("ad1"), bloom.S("c1"), bloom.S("w1"), bloom.S("s2"), bloom.I(1)},
		{bloom.S("ad1"), bloom.S("c1"), bloom.S("w2"), bloom.S("s1"), bloom.I(2)},
		{bloom.S("ad2"), bloom.S("c2"), bloom.S("w1"), bloom.S("s1"), bloom.I(3)},
	}
	request := bloom.Row{bloom.S("ad1"), bloom.S("c1"), bloom.S("w1"), bloom.S("r1")}

	run := func(q dataflow.AdQuery, threshold int64) []bloom.Row {
		mod, err := ReportModule(q, threshold)
		if err != nil {
			t.Fatal(err)
		}
		n, err := bloom.NewNode("n", mod)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Deliver("click", clicks...); err != nil {
			t.Fatal(err)
		}
		if _, err := n.Tick(); err != nil {
			t.Fatal(err)
		}
		if err := n.Deliver("request", request); err != nil {
			t.Fatal(err)
		}
		em, err := n.Tick()
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range em {
			if e.Collection == "response" {
				return e.Rows
			}
		}
		return nil
	}

	// POOR: ad1 has 3 clicks < 100 ⇒ answered with count 3.
	rows := run(dataflow.POOR, 100)
	if len(rows) != 1 || bloom.AsString(rows[0][2]) != "3" {
		t.Errorf("POOR rows = %v, want count 3", rows)
	}
	// POOR with threshold 3: 3 clicks not < 3 ⇒ no answer.
	if rows := run(dataflow.POOR, 3); len(rows) != 0 {
		t.Errorf("POOR(3) rows = %v, want none", rows)
	}
	// WINDOW: (w1, ad1) has 2 clicks ⇒ count 2.
	rows = run(dataflow.WINDOW, 100)
	if len(rows) != 1 || bloom.AsString(rows[0][2]) != "2" {
		t.Errorf("WINDOW rows = %v, want count 2", rows)
	}
	// CAMPAIGN: (c1, ad1) has 3 clicks ⇒ count 3.
	rows = run(dataflow.CAMPAIGN, 100)
	if len(rows) != 1 || bloom.AsString(rows[0][2]) != "3" {
		t.Errorf("CAMPAIGN rows = %v, want count 3", rows)
	}
	// THRESH with threshold 2: ad1 (3 clicks) is hot.
	rows = run(dataflow.THRESH, 2)
	if len(rows) != 1 || bloom.AsString(rows[0][2]) != "hot" {
		t.Errorf("THRESH rows = %v, want hot", rows)
	}
	// THRESH with threshold 10: nothing hot.
	if rows := run(dataflow.THRESH, 10); len(rows) != 0 {
		t.Errorf("THRESH(10) rows = %v, want none", rows)
	}
}

func TestWorkloadPlanInvariants(t *testing.T) {
	for _, independent := range []bool{true, false} {
		w := DefaultWorkload(5, independent)
		w.EntriesPerServer = 100
		bursts := w.Plan()

		perServer := map[string]int{}
		sealsPer := map[string]map[string]bool{}
		producers := map[string]map[string]bool{} // campaign → servers with clicks for it
		for _, b := range bursts {
			perServer[b.Server] += len(b.Clicks)
			for _, c := range b.Clicks {
				if c.Server != b.Server {
					t.Fatalf("click attributed to wrong server: %v in burst of %s", c, b.Server)
				}
				if producers[c.Campaign] == nil {
					producers[c.Campaign] = map[string]bool{}
				}
				producers[c.Campaign][c.Server] = true
			}
			for _, seal := range b.Seals {
				if sealsPer[b.Server] == nil {
					sealsPer[b.Server] = map[string]bool{}
				}
				if sealsPer[b.Server][seal] {
					t.Fatalf("server %s sealed %s twice", b.Server, seal)
				}
				sealsPer[b.Server][seal] = true
			}
		}
		for s, n := range perServer {
			if n != 100 {
				t.Errorf("independent=%v server %s produced %d records, want 100", independent, s, n)
			}
		}
		// Every producing server seals every campaign it produces: the
		// registry the sealing protocol consults lists the servers that
		// seal a campaign.
		for campaign, servers := range producers {
			for p := range servers {
				if !sealsPer[p][campaign] {
					t.Errorf("independent=%v: %s never sealed %s", independent, p, campaign)
				}
			}
			// Independent partitioning: exactly one producer per campaign.
			if independent && len(servers) != 1 {
				t.Errorf("campaign %s has %d producers, want 1", campaign, len(servers))
			}
		}
	}
}
