package bloom

import (
	"strings"
	"testing"
)

func TestRowHashBoundaries(t *testing.T) {
	// Length-prefixed string hashing: adjacent values must not concatenate
	// ambiguously, and type tags must separate I(1) from S("1").
	pairs := [][2]Row{
		{{S("as"), S("b")}, {S("a"), S("sb")}},
		{{S("ab")}, {S("a"), S("b")}},
		{{I(1)}, {S("1")}},
	}
	for _, p := range pairs {
		if p[0].hash() == p[1].hash() {
			t.Errorf("rows %v and %v collide", p[0], p[1])
		}
		if rowsSame(p[0], p[1]) {
			t.Errorf("rows %v and %v compare equal", p[0], p[1])
		}
	}
	a, b := Row{S("x"), I(3)}, Row{S("x"), I(3)}
	if a.hash() != b.hash() || !rowsSame(a, b) {
		t.Error("equal rows must hash and compare equal")
	}
	// Every byte of a string reaches the hash, at every length around the
	// eight-byte words it is read in.
	for n := 1; n <= 24; n++ {
		base := strings.Repeat("a", n)
		h := Row{S(base)}.hash()
		for i := range n {
			flipped := base[:i] + "b" + base[i+1:]
			if (Row{S(flipped)}).hash() == h {
				t.Errorf("%q and %q hash alike: byte %d of %d is not read", base, flipped, i, n)
			}
		}
	}
}

func TestValsEqualTotal(t *testing.T) {
	// Non-comparable dynamic types (possible via rule constants) must not
	// panic; they compare by rendered form like key()'s "o" encoding.
	if !valsEqual([]byte("x"), []byte("x")) {
		t.Error("equal non-comparable values must compare equal")
	}
	if valsEqual([]byte("x"), S("x")) || valsEqual([]byte("3"), I(3)) {
		t.Error("other types must not unify with string/int64")
	}
}
