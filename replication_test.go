package blazes

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"blazes/internal/dataflow"
)

// TestReplicationIdempotent is ROADMAP item 4(e): replication is
// idempotent. Figure 10 reconciles an output interface under one Rep flag,
// the component's or any stream leaving the interface's, so saying a second
// time that a component is replicated changes nothing:
//
//   - Rep set on a component whose output streams are already Rep;
//   - Rep set on an output stream of a component that is already Rep.
//
// Neither edit moves any stream's label, nor the verdict. The law is checked
// on the one-shot engine over generated graphs (20 and 200 components,
// seeds 1–4) and the fixture specs, up to 24 components a graph, and on a
// session mid-script: Rep has no session edit, so two sessions run the same
// random label-edit script in lockstep, one opened on the graph before the
// edit and one on the graph after it, and every report of the one equals
// the other's.
func TestReplicationIdempotent(t *testing.T) {
	ctx := context.Background()
	checked, moved := 0, 0
	for gi, g := range monotonicityGraphs(t) {
		rng := rand.New(rand.NewSource(int64(gi + 1)))
		comps := g.Components()
		for _, k := range rng.Perm(len(comps))[:min(24, len(comps))] {
			name := comps[k].Name
			var outs []string
			for _, s := range g.Streams() {
				if s.FromComp == name {
					outs = append(outs, s.Name)
				}
			}
			if len(outs) == 0 {
				continue
			}
			// A component whose outputs are Rep, then made Rep itself; a
			// Rep component, then one of its outputs made Rep.
			repOuts := g.Clone()
			for _, s := range outs {
				repOuts.Stream(s).Rep = true
			}
			repComp := withRep(g, name, "")
			if !maps.Equal(exactLabels(t, g), exactLabels(t, repComp)) {
				moved++ // the first Rep mattered, so the second could have
			}
			one := outs[rng.Intn(len(outs))]
			for _, law := range []struct {
				what          string
				before, after *Graph
			}{
				{fmt.Sprintf("Rep on %s, whose outputs are Rep", name), repOuts, withRep(repOuts, name, "")},
				{fmt.Sprintf("Rep on %s's output %s, %s being Rep", name, one, name), repComp, withRep(repComp, "", one)},
			} {
				checked++
				sameLabels(t, g.Name+": "+law.what, exactLabels(t, law.before), exactLabels(t, law.after))

				// The same script on both, from a random step on.
				s, err := OpenSession(law.before)
				if err != nil {
					t.Fatal(err)
				}
				rs, err := OpenSession(law.after)
				if err != nil {
					t.Fatal(err)
				}
				script := rand.New(rand.NewSource(rng.Int63()))
				mirror := rand.New(rand.NewSource(0))
				for step := range 3 {
					seed := script.Int63()
					if step > 0 {
						mirror.Seed(seed)
						scriptEdit(t, mirror, s)
						mirror.Seed(seed)
						scriptEdit(t, mirror, rs)
					}
					want, err := s.Analyze(ctx)
					if err != nil {
						t.Fatal(err)
					}
					got, err := rs.Analyze(ctx)
					if err != nil {
						t.Fatal(err)
					}
					sameLabels(t, fmt.Sprintf("%s session step %d: %s", g.Name, step, law.what), reportExactLabels(want), reportExactLabels(got))
				}
			}
		}
	}
	t.Logf("%d edits checked; a first Rep moved a label on %d of their components", checked, moved)
	if checked < 100 || moved < 10 {
		t.Errorf("only %d edits checked, and a first Rep moved a label on %d components", checked, moved)
	}
}

// withRep returns a clone of g with component comp or stream stream (the
// one not empty) made Rep.
func withRep(g *Graph, comp, stream string) *Graph {
	ng := g.Clone()
	if comp != "" {
		ng.Lookup(comp).Rep = true
	} else {
		ng.Stream(stream).Rep = true
	}
	return ng
}

// exactLabels is an analysis as the law compares it: each stream's label
// in full, and the verdict under the empty name.
func exactLabels(t *testing.T, g *Graph) map[string]string {
	t.Helper()
	a, err := dataflow.Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{"": a.Verdict.String()}
	for s, l := range a.Streams() {
		out[s.Name] = l.String()
	}
	return out
}

func reportExactLabels(r *Report) map[string]string {
	label := func(l LabelReport) string { return l.Kind + "(" + strings.Join(l.Key, ",") + ")" }
	out := map[string]string{"": label(r.Verdict)}
	for _, s := range r.Streams {
		out[s.Name] = label(s.Label)
	}
	return out
}

// sameLabels fails when a label or the verdict differs between the two.
func sameLabels(t *testing.T, what string, before, after map[string]string) {
	t.Helper()
	if maps.Equal(before, after) {
		return
	}
	for name, l := range after {
		if was := before[name]; l != was {
			if name == "" {
				name = "the verdict"
			}
			t.Errorf("%s: %s moved from %s to %s", what, name, was, l)
			return
		}
	}
	t.Errorf("%s: %d labels before, %d after", what, len(before), len(after))
}
