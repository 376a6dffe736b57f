package coord

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"blazes/internal/sim"
)

func TestSealReleasesOnUnanimousVote(t *testing.T) {
	var released []string
	var contents []int
	tr := NewSealTracker(func(p string, msgs []int) {
		released = append(released, p)
		contents = msgs
	})
	tr.SetExpected("c1", []string{"a", "b", "c"})
	tr.Data("c1", 1)
	tr.Data("c1", 2)

	tr.Seal(Punctuation{"c1", "a"})
	tr.Seal(Punctuation{"c1", "b"})
	if len(released) != 0 {
		t.Fatal("partition released before unanimous vote")
	}
	tr.Seal(Punctuation{"c1", "c"})
	if !reflect.DeepEqual(released, []string{"c1"}) {
		t.Fatalf("released = %v", released)
	}
	if !reflect.DeepEqual(contents, []int{1, 2}) {
		t.Fatalf("contents = %v", contents)
	}
	if !tr.Sealed("c1") {
		t.Error("Sealed should report release")
	}
}

func TestSealSingleProducerFastPath(t *testing.T) {
	// Independent seals (one producer per partition) release immediately —
	// the low-latency path of Figure 14.
	released := false
	tr := NewSealTracker(func(string, []int) { released = true })
	tr.SetExpected("c1", []string{"only"})
	tr.Data("c1", 0)
	tr.Seal(Punctuation{"c1", "only"})
	if !released {
		t.Error("single-producer partition should release on its one seal")
	}
}

func TestSealBuffersUntilExpectedKnown(t *testing.T) {
	// Votes and data can arrive before the registry answers; nothing
	// releases until the vote set is known.
	released := false
	tr := NewSealTracker(func(string, []int) { released = true })
	tr.Data("c1", 1)
	tr.Seal(Punctuation{"c1", "a"})
	if released {
		t.Fatal("released without knowing the vote set")
	}
	if tr.KnowsExpected("c1") {
		t.Fatal("vote set should be unknown")
	}
	tr.SetExpected("c1", []string{"a"})
	if !released {
		t.Error("release must fire once the vote set arrives and is satisfied")
	}
}

func TestSealDuplicatePunctuationsIdempotent(t *testing.T) {
	count := 0
	tr := NewSealTracker(func(string, []int) { count++ })
	tr.SetExpected("c1", []string{"a", "b"})
	tr.Seal(Punctuation{"c1", "a"})
	tr.Seal(Punctuation{"c1", "a"}) // duplicate (at-least-once)
	if count != 0 {
		t.Fatal("duplicate votes from one producer must not count twice")
	}
	tr.Seal(Punctuation{"c1", "b"})
	tr.Seal(Punctuation{"c1", "b"})
	if count != 1 {
		t.Errorf("released %d times, want exactly once", count)
	}
}

func TestSealPartitionsIndependent(t *testing.T) {
	var released []string
	tr := NewSealTracker(func(p string, _ []int) { released = append(released, p) })
	tr.SetExpected("c1", []string{"a", "b"})
	tr.SetExpected("c2", []string{"a"})
	tr.Seal(Punctuation{"c2", "a"})
	tr.Seal(Punctuation{"c1", "a"})
	if !reflect.DeepEqual(released, []string{"c2"}) {
		t.Fatalf("released = %v, want [c2] only", released)
	}
	tr.Seal(Punctuation{"c1", "b"})
	if !reflect.DeepEqual(released, []string{"c2", "c1"}) {
		t.Fatalf("released = %v", released)
	}
}

// TestSealUnanimityProperty: for random producer sets and random vote
// subsets, the partition releases iff the subset covers the whole set.
func TestSealUnanimityProperty(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		producers := []string{"p0", "p1", "p2", "p3", "p4"}[:1+r.Intn(5)]
		released := false
		tr := NewSealTracker(func(string, []int) { released = true })
		tr.SetExpected("k", producers)
		voted := map[string]bool{}
		for _, p := range producers {
			if r.Intn(2) == 0 {
				voted[p] = true
				tr.Seal(Punctuation{"k", p})
			}
		}
		all := len(voted) == len(producers)
		return released == all
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Errorf("unanimity violated: %v", err)
	}
}

func TestRegistryLookupCostsAndAnswers(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s, sim.LinkConfig{MinDelay: sim.Millisecond, MaxDelay: sim.Millisecond})
	r.Register("c1", "a")
	r.Register("c1", "b")
	r.Register("c2", "a")

	var got []string
	var at sim.Time
	r.Lookup("c1", func(producers []string) {
		got = producers
		at = s.Now()
	})
	s.Run()
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("producers = %v", got)
	}
	if at != 2*sim.Millisecond {
		t.Errorf("lookup completed at %v, want one RTT (2ms)", at)
	}
	if r.Lookups() != 1 {
		t.Errorf("Lookups = %d", r.Lookups())
	}
}

func TestRegistryUnknownPartitionEmpty(t *testing.T) {
	s := sim.New(1)
	r := NewRegistry(s, sim.LinkConfig{})
	var got []string
	called := false
	r.Lookup("nope", func(p []string) { got = p; called = true })
	s.Run()
	if !called || len(got) != 0 {
		t.Errorf("lookup of unknown partition: called=%v got=%v", called, got)
	}
}

func TestPunctuationString(t *testing.T) {
	p := Punctuation{Partition: "c1", Producer: "ad3"}
	if p.String() != "seal(c1)@ad3" {
		t.Errorf("String = %q", p.String())
	}
}
