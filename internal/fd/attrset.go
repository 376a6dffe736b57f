// Package fd implements the fragment of functional-dependency theory that
// Blazes needs to decide seal/partition compatibility: attribute sets,
// (injective) functional dependencies, attribute closure and its injective
// restriction (the chase across component compositions), and the
// compatible(gate, key) predicate from Section V of the paper.
//
// The paper's key observation is that a stream sealed on key is usable by an
// order-sensitive component partitioned on gate whenever some subset of gate
// is injectively (distinctness-preservingly) determined by key; the identity
// function introduced by attribute projection is the ubiquitous injective
// function, and identity chains compose transitively ("chasing" the
// dependency through the dataflow).
package fd

import (
	"sort"
	"strings"
)

// AttrSet is an immutable, canonically ordered set of attribute names.
// The zero value is the empty set.
type AttrSet struct {
	attrs []string // sorted, deduplicated
}

// NewAttrSet builds an attribute set from the given names, deduplicating and
// canonicalizing order. Empty names are ignored.
func NewAttrSet(names ...string) AttrSet {
	seen := make(map[string]bool, len(names))
	out := make([]string, 0, len(names))
	for _, n := range names {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	sort.Strings(out)
	return AttrSet{attrs: out}
}

// Attrs returns the attributes in canonical (sorted) order. The returned
// slice must not be modified.
func (s AttrSet) Attrs() []string { return s.attrs }

// Len reports the number of attributes in the set.
func (s AttrSet) Len() int { return len(s.attrs) }

// IsEmpty reports whether the set has no attributes.
func (s AttrSet) IsEmpty() bool { return len(s.attrs) == 0 }

// Contains reports whether name is a member of the set.
func (s AttrSet) Contains(name string) bool {
	i := sort.SearchStrings(s.attrs, name)
	return i < len(s.attrs) && s.attrs[i] == name
}

// SubsetOf reports whether every attribute of s is in t.
func (s AttrSet) SubsetOf(t AttrSet) bool {
	for _, a := range s.attrs {
		if !t.Contains(a) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain exactly the same attributes.
func (s AttrSet) Equal(t AttrSet) bool {
	if len(s.attrs) != len(t.attrs) {
		return false
	}
	for i, a := range s.attrs {
		if t.attrs[i] != a {
			return false
		}
	}
	return true
}

// Union returns the set union of s and t.
func (s AttrSet) Union(t AttrSet) AttrSet {
	return NewAttrSet(append(append([]string{}, s.attrs...), t.attrs...)...)
}

// Intersect returns the set intersection of s and t.
func (s AttrSet) Intersect(t AttrSet) AttrSet {
	out := make([]string, 0, min(len(s.attrs), len(t.attrs)))
	for _, a := range s.attrs {
		if t.Contains(a) {
			out = append(out, a)
		}
	}
	return AttrSet{attrs: out}
}

// Minus returns the attributes of s not present in t.
func (s AttrSet) Minus(t AttrSet) AttrSet {
	out := make([]string, 0, len(s.attrs))
	for _, a := range s.attrs {
		if !t.Contains(a) {
			out = append(out, a)
		}
	}
	return AttrSet{attrs: out}
}

// String renders the set as a comma-joined list, e.g. "id,window".
func (s AttrSet) String() string { return strings.Join(s.attrs, ",") }

// Key returns a canonical string usable as a map key; identical sets always
// produce identical keys.
func (s AttrSet) Key() string { return s.String() }
