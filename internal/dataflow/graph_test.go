package dataflow

import (
	"fmt"
	"strings"
	"testing"

	"blazes/internal/core"
	"blazes/internal/fd"
)

func TestGraphBuilder(t *testing.T) {
	g := NewGraph("g")
	c := g.Component("A")
	c.AddPath("in", "out", core.CR)
	if got := g.Component("A"); got != c {
		t.Error("Component should return the existing component")
	}
	if got := c.Inputs(); len(got) != 1 || got[0] != "in" {
		t.Errorf("Inputs = %v", got)
	}
	if got := c.Outputs(); len(got) != 1 || got[0] != "out" {
		t.Errorf("Outputs = %v", got)
	}
	g.Source("src", "A", "in")
	g.Sink("snk", "A", "out")
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	t.Run("component without paths", func(t *testing.T) {
		g := NewGraph("g")
		g.Component("empty")
		if err := g.Validate(); err == nil {
			t.Error("want error for component without paths")
		}
	})
	t.Run("unknown producer", func(t *testing.T) {
		g := NewGraph("g")
		g.Component("A").AddPath("in", "out", core.CR)
		g.Connect("s", "Nope", "out", "A", "in")
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "Nope") {
			t.Errorf("want unknown-producer error, got %v", err)
		}
	})
	t.Run("unknown interface", func(t *testing.T) {
		g := NewGraph("g")
		g.Component("A").AddPath("in", "out", core.CR)
		g.Source("s", "A", "wrong")
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "wrong") {
			t.Errorf("want unknown-interface error, got %v", err)
		}
	})
	t.Run("dangling stream", func(t *testing.T) {
		g := NewGraph("g")
		g.Component("A").AddPath("in", "out", core.CR)
		g.Connect("s", "", "", "", "")
		if err := g.Validate(); err == nil {
			t.Error("want error for stream with no endpoints")
		}
	})
}

// TestRemoveStreamDeclaredTwice: removing a name the caller declared twice
// removes one stream and leaves the name naming the other, so the graph
// that is left is whole and valid.
func TestRemoveStreamDeclaredTwice(t *testing.T) {
	g := wordcountTopology(false)
	first := g.Sink("x", "Commit", "db")
	g.Sink("x", "Commit", "db")
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted a stream name declared twice")
	}
	if !g.RemoveStream("x") {
		t.Fatal("RemoveStream(x) = false")
	}
	if n := len(g.Streams()); n != 5 {
		t.Errorf("%d streams after the removal, want 5", n)
	}
	if got := g.Stream("x"); got != first {
		t.Errorf("Stream(x) = %v, want the remaining sink %v", got, first)
	}
	if err := g.Validate(); err != nil {
		t.Errorf("Validate after the removal: %v", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := wordcountTopology(true)
	g.Lookup("Count").Coordination = CoordSealed
	c := g.Clone()
	c.Lookup("Count").Coordination = CoordNone
	c.Stream("tweets").Seal = fd.NewAttrSet("other")
	if g.Lookup("Count").Coordination != CoordSealed {
		t.Error("clone mutated original coordination")
	}
	if !g.Stream("tweets").Seal.Equal(fd.NewAttrSet("batch")) {
		t.Error("clone mutated original seal")
	}
}

func TestCoordinationString(t *testing.T) {
	tests := []struct {
		c    Coordination
		want string
	}{
		{CoordNone, "none"},
		{CoordSequenced, "sequencing (M1)"},
		{CoordDynamicOrder, "dynamic ordering (M2)"},
		{CoordSealed, "sealing (M3)"},
	}
	for _, tt := range tests {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

// TestMechanismTable: the one table spells every mechanism once — names
// and tokens are unique and parse back, and every mechanism but CoordNone
// is installed by a strategy.
func TestMechanismTable(t *testing.T) {
	names, tokens := map[string]bool{}, map[string]bool{}
	for _, c := range Coordinations() {
		if names[c.String()] || tokens[c.Token()] {
			t.Errorf("%v: name %q or token %q is spelled twice", c, c.String(), c.Token())
		}
		names[c.String()], tokens[c.Token()] = true, true
		if got, err := ParseCoordination(c.String()); err != nil || got != c {
			t.Errorf("ParseCoordination(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
		if got, err := ParseToken(c.Token()); err != nil || got != c {
			t.Errorf("ParseToken(%q) = %v, %v; want %v", c.Token(), got, err, c)
		}
		if c == CoordNone {
			if c.Strategy() != "" {
				t.Errorf("CoordNone is installed by %q", c.Strategy())
			}
			continue
		}
		if c.Strategy() == "" {
			t.Errorf("%v is installed by no strategy", c)
		}
	}
	for _, bad := range []string{"vector clocks (M9)", "teleportation"} {
		if _, err := ParseCoordination(bad); err == nil || !strings.Contains(err.Error(), CoordSealed.String()) {
			t.Errorf("ParseCoordination(%q): error %v does not list the mechanisms", bad, err)
		}
		if _, err := ParseToken(bad); err == nil || !strings.Contains(err.Error(), CoordSealed.Token()) {
			t.Errorf("ParseToken(%q): error %v does not list the tokens", bad, err)
		}
	}
	if got := Coordination(99); got.String() != "Coordination(99)" || got.Token() != "none" || got.Strategy() != "" {
		t.Errorf("undeclared mechanism renders %q / %q / %q", got.String(), got.Token(), got.Strategy())
	}
}

// TestValidateDoesNotReadSeals: Validate's verdict, and each error it
// reports, is the same whatever the streams are sealed on. A session opened
// on a spec relies on it: the spec's build validated the graph, and the
// seal repairs applied after it set only Stream.Seal.
func TestValidateDoesNotReadSeals(t *testing.T) {
	invalid := NewGraph("invalid")
	invalid.Component("empty")
	invalid.Component("A").AddPath("in", "out", core.CR)
	invalid.Connect("unknown-producer", "Nope", "out", "A", "in")
	invalid.Source("unknown-iface", "A", "wrong")
	invalid.Sink("unknown-out", "A", "wrong")
	invalid.Connect("nothing", "", "", "", "")
	for _, g := range []*Graph{wordcountTopology(false), wordcountTopology(true), invalid} {
		want := fmt.Sprint(g.Validate())
		for _, key := range []fd.AttrSet{{}, fd.NewAttrSet("batch"), fd.NewAttrSet("no", "such", "attrs")} {
			for _, s := range g.Streams() {
				s.Seal = key
			}
			if got := fmt.Sprint(g.Validate()); got != want {
				t.Errorf("%s sealed on %v: Validate = %s, want %s", g.Name, key, got, want)
			}
		}
	}
}
