package verify_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"blazes/verify"
)

// TestCheckContextPreCancelled: an already-cancelled context aborts before
// any schedule runs.
func TestCheckContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := verify.CheckContext(ctx, verify.SyntheticSet(), verify.Options{Seeds: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCheckContextStopsMidSweep: cancelling during a sweep stops the
// workers at the next seed boundary instead of running the full
// multi-configuration sweep.
func TestCheckContextStopsMidSweep(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	// A deliberately deep sweep that would take far longer than the
	// timeout if cancellation did not bite.
	_, err := verify.CheckContext(ctx, verify.Wordcount(), verify.Options{Seeds: 512})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 20*time.Second {
		t.Fatalf("cancellation took %v — workers did not stop promptly", elapsed)
	}
}

// TestCheckMatchesCheckContextBackground: the ctx-free entry point is the
// background-context special case — reports are byte-identical.
func TestCheckMatchesCheckContextBackground(t *testing.T) {
	opts := verify.Options{Seeds: 6}
	a, err := verify.Check(verify.SyntheticSet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := verify.CheckContext(context.Background(), verify.SyntheticSet(), opts)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := verify.MarshalReports([]*verify.Report{a})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := verify.MarshalReports([]*verify.Report{b})
	if err != nil {
		t.Fatal(err)
	}
	if string(ab) != string(bb) {
		t.Fatalf("reports differ:\n%s\nvs\n%s", ab, bb)
	}
}
