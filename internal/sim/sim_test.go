package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	s.Run()
	if !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("order = %v", got)
	}
	if s.Now() != 30 {
		t.Errorf("now = %v, want 30", s.Now())
	}
}

func TestFIFOTieBreakAtSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events must run FIFO; got %v", got)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	s := New(1)
	var at Time
	s.At(100, func() {
		s.After(50, func() { at = s.Now() })
	})
	s.Run()
	if at != 150 {
		t.Errorf("After fired at %v, want 150", at)
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	s := New(1)
	fired := false
	s.At(100, func() {
		s.At(10, func() { fired = true }) // in the past
	})
	s.Run()
	if !fired {
		t.Error("past-scheduled event must still fire")
	}
	if s.Now() != 100 {
		t.Errorf("now = %v, want 100 (clamped)", s.Now())
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(25)
	if !reflect.DeepEqual(fired, []Time{10, 20}) {
		t.Errorf("fired = %v", fired)
	}
	if s.Now() != 25 {
		t.Errorf("now = %v, want 25", s.Now())
	}
	if s.Pending() != 2 {
		t.Errorf("pending = %d, want 2", s.Pending())
	}
}

func TestTimeString(t *testing.T) {
	if got := (1500 * Microsecond).String(); got != "1.500ms" {
		t.Errorf("String = %q", got)
	}
	if got := Second.Seconds(); got != 1.0 {
		t.Errorf("Seconds = %v", got)
	}
}

// deliverySequence runs a fixed message pattern through a reordering,
// at-least-once link and records the delivered order.
func deliverySequence(seed int64, cfg LinkConfig, n int) []int {
	s := New(seed)
	var got []int
	l := NewLink(s, cfg)
	for i := 0; i < n; i++ {
		s.At(Time(i)*10, func() {
			l.SendDup(Unordered, s.Now(), Func(func() { got = append(got, i) }))
		})
	}
	s.Run()
	return got
}

// TestDeterminismSameSeed: identical seeds must produce identical traces —
// the property every seeded test in this repository relies on.
func TestDeterminismSameSeed(t *testing.T) {
	cfg := LinkConfig{MinDelay: 1, MaxDelay: 500, DupProb: 0.2}
	prop := func(seed int64) bool {
		a := deliverySequence(seed, cfg, 50)
		b := deliverySequence(seed, cfg, 50)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Errorf("same seed must give same trace: %v", err)
	}
}

// TestDifferentSeedsReorder: with wide delay bounds, different seeds must
// produce different delivery orders (this is the nondeterminism the paper's
// analysis guards against).
func TestDifferentSeedsReorder(t *testing.T) {
	cfg := LinkConfig{MinDelay: 1, MaxDelay: 5000}
	base := deliverySequence(1, cfg, 50)
	distinct := false
	for seed := int64(2); seed < 10; seed++ {
		if !reflect.DeepEqual(base, deliverySequence(seed, cfg, 50)) {
			distinct = true
			break
		}
	}
	if !distinct {
		t.Error("expected at least one differing delivery order across seeds")
	}
}

func TestLinkReliableDeliversAll(t *testing.T) {
	cfg := LinkConfig{MinDelay: 1, MaxDelay: 100}
	got := deliverySequence(7, cfg, 200)
	if len(got) != 200 {
		t.Fatalf("delivered %d of 200", len(got))
	}
	seen := map[int]bool{}
	for _, v := range got {
		if seen[v] {
			t.Fatalf("duplicate %d on reliable link", v)
		}
		seen[v] = true
	}
}

func TestLinkDuplication(t *testing.T) {
	s := New(3)
	count := map[int]int{}
	l := NewLink(s, LinkConfig{MinDelay: 1, MaxDelay: 10, DupProb: 1.0})
	for i := 0; i < 20; i++ {
		l.SendDup(Unordered, 0, Func(func() { count[i]++ }))
	}
	s.Run()
	for i := 0; i < 20; i++ {
		if count[i] != 2 {
			t.Fatalf("message %d delivered %d times, want 2 (DupProb=1)", i, count[i])
		}
	}
	if st := l.Stats(); st.Duplicate != 20 || st.Sent != 20 {
		t.Errorf("stats = %+v", st)
	}
}

// TestLinkConfigSwappedDelaysNormalized: MaxDelay < MinDelay is tolerated.
func TestLinkConfigSwappedDelaysNormalized(t *testing.T) {
	s := New(6)
	n := 0
	NewLink(s, LinkConfig{MinDelay: 100, MaxDelay: 1}).Send(Unordered, 0, Func(func() { n++ }))
	s.Run()
	if n != 1 || s.Now() != 100 {
		t.Errorf("swapped delay bounds: %d deliveries, the last at %v; want 1 at MinDelay", n, s.Now())
	}
}

// TestSimRandDeterministic pins that the exposed RNG is seed-stable.
func TestSimRandDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("Rand() must be deterministic per seed")
		}
	}
	_ = rand.Int // keep math/rand import for doc purposes
}
