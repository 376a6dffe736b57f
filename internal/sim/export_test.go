package sim

// ForgetSeeds empties the seeded-state table, so the next New of every seed
// seeds its slot afresh.
func ForgetSeeds() {
	for i := range seededTable {
		e := &seededTable[i]
		e.mu.Lock()
		e.key = 0
		e.mu.Unlock()
	}
}
