// Package sim holds //lint:allow markers that name no registered check:
// each marker is a finding, and the misspelled one suppresses nothing.
package sim

// Keys leaks map iteration order under a misspelled marker.
func Keys(m map[string]int) []string {
	var out []string
	//lint:allow bogus
	//lint:allow mapordr the caller sorts the keys
	for k := range m {
		out = append(out, k)
	}
	return out
}
