package fd

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClosureBasic(t *testing.T) {
	// Classic textbook closure: A→B, B→C gives {A}+ = {A,B,C}.
	s := NewSet(
		NewFD(NewAttrSet("A"), NewAttrSet("B")),
		NewFD(NewAttrSet("B"), NewAttrSet("C")),
	)
	got := s.Closure(NewAttrSet("A"))
	if !got.Equal(NewAttrSet("A", "B", "C")) {
		t.Errorf("Closure(A) = %v, want A,B,C", got)
	}
	if !s.Determines(NewAttrSet("A"), NewAttrSet("C")) {
		t.Error("A should determine C transitively")
	}
	if s.Determines(NewAttrSet("C"), NewAttrSet("A")) {
		t.Error("C should not determine A")
	}
}

func TestClosureCompositeLHS(t *testing.T) {
	// AB→C only fires once both A and B are present.
	s := NewSet(NewFD(NewAttrSet("A", "B"), NewAttrSet("C")))
	if s.Determines(NewAttrSet("A"), NewAttrSet("C")) {
		t.Error("A alone should not determine C")
	}
	if !s.Determines(NewAttrSet("A", "B"), NewAttrSet("C")) {
		t.Error("AB should determine C")
	}
}

func TestInjectiveClosureIgnoresNonInjective(t *testing.T) {
	// company →(inj) symbol, company →(non-inj) city; the paper's Yahoo!
	// example: sealing company seals YHOO but not Sunnyvale.
	s := NewSet(
		NewInjectiveFD(NewAttrSet("company"), NewAttrSet("symbol")),
		NewFD(NewAttrSet("company"), NewAttrSet("city")),
	)
	got := s.InjectiveClosure(NewAttrSet("company"))
	if !got.Equal(NewAttrSet("company", "symbol")) {
		t.Errorf("InjectiveClosure(company) = %v, want company,symbol", got)
	}
	if !s.InjectivelyDetermines(NewAttrSet("company"), NewAttrSet("symbol")) {
		t.Error("company should injectively determine symbol")
	}
	if s.InjectivelyDetermines(NewAttrSet("company"), NewAttrSet("city")) {
		t.Error("company must not injectively determine city")
	}
}

func TestInjectiveClosureComposes(t *testing.T) {
	// Identity chains compose: the S ≡ π_a π_ab π_abc R example — S.a is
	// injectively determined by R.a through transitive identity projections.
	s := NewSet(
		Rename("R.a", "T1.a"),
		Rename("T1.a", "T2.a"),
		Rename("T2.a", "S.a"),
	)
	if !s.InjectivelyDetermines(NewAttrSet("R.a"), NewAttrSet("S.a")) {
		t.Error("identity chain should injectively determine S.a from R.a")
	}
}

func TestCompatiblePaperExamples(t *testing.T) {
	ident := NewSet(Identity("batch"), Identity("word"), Identity("campaign"), Identity("id"), Identity("window"))

	tests := []struct {
		name      string
		gate, key AttrSet
		want      bool
	}{
		// Wordcount: Count is OW_{word,batch}; stream sealed on batch.
		{"seal batch vs gate word,batch", NewAttrSet("word", "batch"), NewAttrSet("batch"), true},
		// CAMPAIGN: gate {id,campaign}, seal campaign.
		{"seal campaign vs gate id,campaign", NewAttrSet("id", "campaign"), NewAttrSet("campaign"), true},
		// POOR: gate {id}, seal campaign — incompatible.
		{"seal campaign vs gate id", NewAttrSet("id"), NewAttrSet("campaign"), false},
		// WINDOW: gate {id,window}, seal window.
		{"seal window vs gate id,window", NewAttrSet("id", "window"), NewAttrSet("window"), true},
		// THRESH has no gate (confluent) — compatibility is vacuous/false.
		{"empty gate", NewAttrSet(), NewAttrSet("campaign"), false},
		{"empty key", NewAttrSet("id"), NewAttrSet(), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ident.Compatible(tt.gate, tt.key); got != tt.want {
				t.Errorf("Compatible(%v, %v) = %v, want %v", tt.gate, tt.key, got, tt.want)
			}
		})
	}
}

func TestCompatibleThroughInjectiveFunction(t *testing.T) {
	// A seal on company is compatible with a gate on symbol because
	// company ↣ symbol, even without identity of names.
	s := NewSet(NewInjectiveFD(NewAttrSet("company"), NewAttrSet("symbol")))
	if !s.Compatible(NewAttrSet("symbol"), NewAttrSet("company")) {
		t.Error("company seal should be compatible with symbol gate")
	}
	if s.Compatible(NewAttrSet("company"), NewAttrSet("symbol")) {
		t.Error("symbol seal must not be compatible with company gate (FD points the other way)")
	}
}

// genFDSet builds a random dependency set over a small universe.
func genFDSet(r *rand.Rand) *Set {
	s := NewSet()
	n := r.Intn(6)
	for i := 0; i < n; i++ {
		from, to := genAttrSet(r), genAttrSet(r)
		if from.IsEmpty() || to.IsEmpty() {
			continue
		}
		s.Add(FD{From: from, To: to, Injective: r.Intn(2) == 0})
	}
	return s
}

func TestClosureProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}

	// Extensive: X ⊆ closure(X).
	extensive := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, x := genFDSet(r), genAttrSet(r)
		return x.SubsetOf(s.Closure(x)) && x.SubsetOf(s.InjectiveClosure(x))
	}
	if err := quick.Check(extensive, cfg); err != nil {
		t.Errorf("closure not extensive: %v", err)
	}

	// Idempotent: closure(closure(X)) = closure(X).
	idempotent := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, x := genFDSet(r), genAttrSet(r)
		c := s.Closure(x)
		ci := s.InjectiveClosure(x)
		return s.Closure(c).Equal(c) && s.InjectiveClosure(ci).Equal(ci)
	}
	if err := quick.Check(idempotent, cfg); err != nil {
		t.Errorf("closure not idempotent: %v", err)
	}

	// Monotone: X ⊆ Y ⇒ closure(X) ⊆ closure(Y).
	monotone := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, x, extra := genFDSet(r), genAttrSet(r), genAttrSet(r)
		y := x.Union(extra)
		return s.Closure(x).SubsetOf(s.Closure(y)) &&
			s.InjectiveClosure(x).SubsetOf(s.InjectiveClosure(y))
	}
	if err := quick.Check(monotone, cfg); err != nil {
		t.Errorf("closure not monotone: %v", err)
	}

	// Injective closure is always contained in the full closure.
	contained := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, x := genFDSet(r), genAttrSet(r)
		return s.InjectiveClosure(x).SubsetOf(s.Closure(x))
	}
	if err := quick.Check(contained, cfg); err != nil {
		t.Errorf("injective closure escaped full closure: %v", err)
	}
}

func TestCompatibleReflexiveUnderIdentity(t *testing.T) {
	// Any set sealed on its own gate attributes is compatible once
	// identities are recorded.
	cfg := &quick.Config{MaxCount: 300}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		gate := genAttrSet(r)
		if gate.IsEmpty() {
			return true
		}
		s := NewSet()
		s.AddIdentity(gate.Attrs()...)
		return s.Compatible(gate, gate)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("compatible not reflexive under identity: %v", err)
	}
}

func TestVacuousFDsIgnored(t *testing.T) {
	s := NewSet(
		FD{From: NewAttrSet(), To: NewAttrSet("a")},
		FD{From: NewAttrSet("a"), To: NewAttrSet()},
	)
	if s.Len() != 0 {
		t.Errorf("vacuous FDs should be dropped, got %d", s.Len())
	}
}

func TestFDString(t *testing.T) {
	f := NewFD(NewAttrSet("a"), NewAttrSet("b"))
	if f.String() != "a -> b" {
		t.Errorf("String = %q", f.String())
	}
	g := NewInjectiveFD(NewAttrSet("a"), NewAttrSet("b"))
	if g.String() != "a >-> b" {
		t.Errorf("String = %q", g.String())
	}
}

// The cases below are the chase of Section V-A1/VII-B2 stated on Set: a
// stage's lineage is a set of identity, rename and derived dependencies, a
// path's lineage is the union of its stages', and the keys a seal survives
// on are the injective closure of the seal key.

func TestLineagePreserveAndRename(t *testing.T) {
	s := NewSet(Identity("campaign"), Rename("clicks.id", "response.id"))
	if !s.InjectivelyDetermines(NewAttrSet("campaign"), NewAttrSet("campaign")) {
		t.Error("preserved attribute should injectively determine itself")
	}
	if !s.InjectivelyDetermines(NewAttrSet("clicks.id"), NewAttrSet("response.id")) {
		t.Error("rename should record an injective dependency")
	}
}

func TestLineageDeriveIsNotInjective(t *testing.T) {
	s := NewSet(NewFD(NewAttrSet("clicks.id"), NewAttrSet("count")))
	if s.InjectivelyDetermines(NewAttrSet("clicks.id"), NewAttrSet("count")) {
		t.Error("a plain dependency must not be injective")
	}
	if !s.Determines(NewAttrSet("clicks.id"), NewAttrSet("count")) {
		t.Error("a plain dependency should still determine its target")
	}
}

func TestComposeChasesAcrossStages(t *testing.T) {
	s := NewSet()
	// Stage 1: splitter preserves batch, derives word from tweet text.
	s.AddIdentity("batch")
	s.Add(NewFD(NewAttrSet("text"), NewAttrSet("word")))
	// Stage 2: counter preserves word and batch, derives count.
	s.AddIdentity("word", "batch")
	s.Add(NewFD(NewAttrSet("word", "batch"), NewAttrSet("count")))

	sealed := s.InjectiveClosure(NewAttrSet("batch"))
	if !sealed.Contains("batch") {
		t.Errorf("batch seal should survive the composition, got %v", sealed)
	}
	if sealed.Contains("count") {
		t.Errorf("count must not be implicitly sealed, got %v", sealed)
	}
}

func TestChaseSealLostThroughAggregation(t *testing.T) {
	// An aggregation that groups on a derived, non-injective column loses
	// the seal: nothing in the output is injectively determined by the key.
	s := NewSet(NewFD(NewAttrSet("campaign"), NewAttrSet("bucket"))) // e.g. hash-bucketed
	if s.InjectiveClosure(NewAttrSet("campaign")).Contains("bucket") {
		t.Error("non-injective derivation must not carry the seal")
	}
}

func TestDeriveInjectiveCarriesSeal(t *testing.T) {
	s := NewSet(NewInjectiveFD(NewAttrSet("campaign", "id"), NewAttrSet("pairkey")))
	if !s.InjectiveClosure(NewAttrSet("campaign", "id")).Contains("pairkey") {
		t.Error("caller-asserted injective derivation should carry the seal")
	}
}
