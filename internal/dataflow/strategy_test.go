package dataflow

import (
	"strings"
	"testing"
)

// TestLookupStrategyUnknown: the error names the full catalog, so a typo at
// any boundary (API option, CLI flag, service field) is self-correcting.
func TestLookupStrategyUnknown(t *testing.T) {
	_, err := LookupStrategy("nope")
	if err == nil {
		t.Fatal("LookupStrategy accepted an unknown name")
	}
	msg := err.Error()
	if !strings.Contains(msg, `unknown strategy "nope"`) {
		t.Errorf("error %q does not name the unknown strategy", msg)
	}
	for _, name := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyPartitionSealing} {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list strategy %q", msg, name)
		}
	}
	if _, err := LookupStrategy(""); err == nil {
		t.Error("LookupStrategy accepted CoordNone's empty name")
	}
}

// TestStrategyRegistryContents: the five shipped strategies are in the table
// and listed in sorted order.
func TestStrategyRegistryContents(t *testing.T) {
	names := StrategyNames()
	seen := map[string]bool{}
	for i, n := range names {
		seen[n] = true
		if i > 0 && names[i-1] >= n {
			t.Errorf("StrategyNames not sorted: %v", names)
			break
		}
	}
	for _, want := range []string{StrategySealing, StrategyOrdering, StrategySequencing, StrategyQuorumOrdering, StrategyPartitionSealing} {
		if !seen[want] {
			t.Errorf("strategy %q not listed (listed: %v)", want, names)
		}
		c, err := LookupStrategy(want)
		if err != nil {
			t.Errorf("LookupStrategy(%q): %v", want, err)
			continue
		}
		if c.Strategy() != want {
			t.Errorf("LookupStrategy(%q) = %v, installed by %q", want, c, c.Strategy())
		}
	}
	if got := Strategies(); len(got) != len(names) {
		t.Errorf("Strategies() returned %d mechanisms for %d names", len(got), len(names))
	}
}
