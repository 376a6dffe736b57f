package coord

import (
	"maps"
	"slices"

	"blazes/internal/sim"
)

// Registry is the name service a sealing strategy consults to learn which
// producers contribute to a stream partition — "the reporting servers use
// Zookeeper only to determine the set of ad servers responsible for each
// campaign — that is, one call to Zookeeper per campaign" (Section VIII-B3).
type Registry struct {
	sim     *sim.Sim
	link    *sim.Link
	members map[string]map[string]bool // partition → producer set
	lookups int
}

// NewRegistry creates a registry whose Lookup calls cost one round trip
// drawn from rtt.
func NewRegistry(s *sim.Sim, rtt sim.LinkConfig) *Registry {
	return &Registry{sim: s, link: sim.NewLink(s, rtt), members: map[string]map[string]bool{}}
}

// Register synchronously records that producer contributes to partition
// (registration happens at deployment time in the paper's systems).
func (r *Registry) Register(partition, producer string) {
	set, ok := r.members[partition]
	if !ok {
		set = map[string]bool{}
		r.members[partition] = set
	}
	set[producer] = true
}

// Producers returns the sorted producer set for a partition at once, with
// no round trip. Lookup answers with it; protocol code calls Lookup so that
// it pays the round trip.
func (r *Registry) Producers(partition string) []string {
	return slices.Sorted(maps.Keys(r.members[partition]))
}

// Lookup asynchronously resolves the producer set for a partition, invoking
// cb after one registry round trip. Both legs honor partition windows on
// the configured link: a lookup issued while the registry is unreachable
// completes only after the partition heals.
func (r *Registry) Lookup(partition string, cb func(producers []string)) {
	r.lookups++
	producers := r.Producers(partition)
	r.link.RoundTrip(r.sim.Now(), func() { cb(producers) })
}

// Lookups reports how many Lookup calls were made (the sealing strategy
// should make exactly one per partition).
func (r *Registry) Lookups() int { return r.lookups }
