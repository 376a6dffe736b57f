package main

import "testing"

// TestLibraryParallelism: -parallel is rejected when negative (it used to
// fall through to one worker per CPU) and 0 means one worker per CPU.
func TestLibraryParallelism(t *testing.T) {
	for _, tc := range []struct {
		flag, want int
		ok         bool
	}{{-5, 0, false}, {-1, 0, false}, {0, -1, true}, {1, 1, true}, {4, 4, true}} {
		got, err := libraryParallelism(tc.flag)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("libraryParallelism(%d) = %d, %v; want %d, ok %v", tc.flag, got, err, tc.want, tc.ok)
		}
	}
}
