package sim

import "testing"

// TestPartitionBuffersUntilHeal: messages sent while the link is cut are
// held at the sender and delivered after the window heals, in an order
// still governed by their drawn latencies.
func TestPartitionBuffersUntilHeal(t *testing.T) {
	s := New(1)
	cfg := LinkConfig{
		MinDelay:   1 * Millisecond,
		MaxDelay:   1 * Millisecond,
		Partitions: []PartitionWindow{{From: 10 * Millisecond, Until: 50 * Millisecond}},
	}
	var arrivals []Time
	l := NewLink(s, cfg)
	for _, sent := range []Time{5 * Millisecond, 20 * Millisecond, 60 * Millisecond} { // before, during, after
		l.Send(Unordered, sent, Func(func() { arrivals = append(arrivals, s.Now()) }))
	}
	s.Run()
	if len(arrivals) != 3 {
		t.Fatalf("delivered %d of 3", len(arrivals))
	}
	if arrivals[0] != 6*Millisecond {
		t.Errorf("pre-partition message arrived at %v, want 6ms", arrivals[0])
	}
	if arrivals[1] != 51*Millisecond {
		t.Errorf("partitioned message arrived at %v, want 51ms (heal + latency)", arrivals[1])
	}
	if arrivals[2] != 61*Millisecond {
		t.Errorf("post-heal message arrived at %v, want 61ms", arrivals[2])
	}
}

// TestPartitionOverlappingWindowsLatestHealWins pins Release over
// overlapping windows.
func TestPartitionOverlappingWindowsLatestHealWins(t *testing.T) {
	cfg := LinkConfig{Partitions: []PartitionWindow{
		{From: 10, Until: 30},
		{From: 5, Until: 60},
	}}
	if got := cfg.Release(12, 15); got != 63 {
		t.Errorf("Release(12, 15) = %d, want 63 (latest heal 60 + latency 3)", got)
	}
	if got := cfg.Release(70, 75); got != 75 {
		t.Errorf("Release outside windows must be identity, got %d", got)
	}
	if got := cfg.Release(60, 62); got != 62 {
		t.Errorf("Until is exclusive: Release(60, 62) = %d, want 62", got)
	}
}

// TestPartitionChainedWindows: a message released into another open window
// keeps waiting — it never traverses the link mid-partition.
func TestPartitionChainedWindows(t *testing.T) {
	cfg := LinkConfig{Partitions: []PartitionWindow{
		{From: 10, Until: 20},
		{From: 20, Until: 30},
		{From: 28, Until: 45},
	}}
	if got := cfg.Release(15, 16); got != 46 {
		t.Errorf("Release(15, 16) = %d, want 46 (chained heals 20→30→45 + latency 1)", got)
	}
	if got := cfg.Release(9, 10); got != 10 {
		t.Errorf("in-flight before the window: Release(9, 10) = %d, want 10", got)
	}
}

// TestDelayHelperMatchesLinkBounds: Delay stays within [MinDelay, MaxDelay]
// and degenerates to MinDelay for swapped bounds.
func TestDelayHelperMatchesLinkBounds(t *testing.T) {
	s := New(9)
	cfg := LinkConfig{MinDelay: 3, MaxDelay: 17}
	for i := 0; i < 200; i++ {
		d := cfg.Delay(s)
		if d < 3 || d > 17 {
			t.Fatalf("Delay = %d outside [3, 17]", d)
		}
	}
	swapped := LinkConfig{MinDelay: 10, MaxDelay: 2}
	if d := swapped.Delay(s); d != 10 {
		t.Errorf("swapped bounds: Delay = %d, want MinDelay 10", d)
	}
}
