package chaos

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"blazes/internal/dataflow"
)

var update = flag.Bool("update", false, "rewrite testdata/outcomes.golden")

// TestOutcomesGolden holds every cell a sweep can run — each Suite workload
// and Generated(40, 8), under each mechanism it supports (coordinated cells
// included, which no other golden covers) and each default fault plan — to
// the outcomes recorded in testdata/outcomes.golden: one line per cell, a
// hash of the JSON of seeds 1…16's Outcomes. A change that moves an rng
// draw, an arrival time or a digest byte anywhere under a workload fails
// here, naming the cell. Re-record only for a change that is meant to move
// schedules (go test ./internal/chaos -run TestOutcomesGolden -update).
func TestOutcomesGolden(t *testing.T) {
	const golden = "testdata/outcomes.golden"
	const seeds = 16
	var b strings.Builder
	for _, w := range append(Suite(), Generated(40, 8)) {
		for _, mech := range dataflow.Coordinations() {
			if !w.Supports(mech) {
				continue
			}
			for _, plan := range DefaultPlans() {
				h := sha256.New()
				for seed := int64(1); seed <= seeds; seed++ {
					out, err := w.Run(seed, plan, mech)
					if err != nil {
						t.Fatalf("%s under %s/%s seed %d: %v", w.Name(), mech, plan.Name, seed, err)
					}
					enc, err := json.Marshal(out)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(enc)
					h.Write([]byte{'\n'})
				}
				fmt.Fprintf(&b, "%s %s %s seeds=1..%d %x\n", w.Name(), mech.Token(), plan.Name, seeds, h.Sum(nil)[:12])
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("outcomes moved at line %d:\n--- got\n%s\n--- want\n%s", i+1, gl[i], w)
			}
		}
		t.Fatalf("outcomes.golden has %d lines, the run produced %d", len(wl), len(gl))
	}
}
