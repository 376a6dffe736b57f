// Package sim sits on a deterministic-scope import path (the fixture
// module is also named blazes) so the e2e test can watch the analyzers
// fire through the driver.
package sim

import (
	"maps"
	"time"
)

// Stamp reads the wall clock: the nondet analyzer must flag it.
func Stamp() time.Time {
	return time.Now()
}

// Keys leaks map iteration order: the maporder analyzer must flag it.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// KeysSeq leaks the same order through the iterator: maporder must flag
// it too.
func KeysSeq(m map[string]int) []string {
	var out []string
	for k := range maps.Keys(m) {
		out = append(out, k)
	}
	return out
}
