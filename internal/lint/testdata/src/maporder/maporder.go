// Package maporder exercises the maporder analyzer: each want comment pins
// a finding; every other read of a map is sorted on the spot or collected
// into a map.
package maporder

import (
	"cmp"
	"maps"
	"slices"
)

// Keys sorts on the spot.
func Keys(m map[string]int) []string {
	return slices.Sorted(maps.Keys(m))
}

// Values sorts on the spot with a comparison.
func Values(m map[string]int) []int {
	return slices.SortedFunc(maps.Values(m), func(a, b int) int { return cmp.Compare(b, a) })
}

// Ordered ranges over the sorted keys, not over the map.
func Ordered(m map[string]int) []int {
	var out []int
	for _, k := range slices.Sorted(maps.Keys(m)) {
		out = append(out, m[k])
	}
	return out
}

// Merge collects one map into others.
func Merge(dst, src map[string]int) map[string]int {
	maps.Insert(dst, maps.All(src))
	maps.Copy(dst, src)
	return maps.Collect(maps.All(maps.Clone(src)))
}

// Leak ranges over the map itself.
func Leak(m map[string]int) []string {
	var out []string
	for k := range m { // want "range over map lets iteration order escape"
		out = append(out, k)
	}
	return out
}

// Sum ranges over the map too: the rule has no order-insensitive bodies,
// only the reasoned marker.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m { // want "range over map"
		total += v
	}
	return total
}

// KeysLeak ranges over the iterator instead of the map: the same order.
func KeysLeak(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) { // want "maps.Keys lets iteration order escape"
		out = append(out, k)
	}
	return out
}

// ValuesLeak collects the iterator into a slice without sorting it.
func ValuesLeak(m map[string]int) []int {
	return slices.Collect(maps.Values(m)) // want "maps.Values lets iteration order escape"
}

// AllLeak hands the iterator on instead of draining it.
func AllLeak(m map[string]int, yield func(string, int) bool) {
	maps.All(m)(yield) // want "maps.All lets iteration order escape"
}
