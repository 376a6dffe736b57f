//go:build race

// Package race reports whether the race detector is on. It changes what
// allocates, so the allocation pins in the tests skip themselves under it.
package race

const Enabled = true
