package storm

// DrainReleased empties the pool of released topologies, so that the next
// NewTopology builds a new one.
func DrainReleased() {
	for released.Get() != nil {
	}
}
