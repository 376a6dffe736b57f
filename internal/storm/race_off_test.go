//go:build !race

package storm

// RaceEnabled reports whether the race detector is on; it changes what
// allocates, so the allocation pins skip themselves under it.
const RaceEnabled = false
