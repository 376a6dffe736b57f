package sim

import (
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds covers the reduction seedKey makes: zero, the small seeds a
// sweep runs, negatives, both sides of int32max and a seed past 32 bits;
// and seeds that take a slot of seededTable from an earlier one.
func sourceSeeds() []int64 {
	seeds := []int64{0, -1, -2, -64, -int32max, -int32max - 1, math.MinInt64, math.MaxInt64, 1 << 40, 89482311, 1 + seedSlots, 5 + seedSlots, 5}
	for s := int64(1); s <= 64; s++ {
		seeds = append(seeds, s)
	}
	for k := int64(0); k <= 3; k++ {
		seeds = append(seeds, int32max+k, int32max-k, 2*int32max+k)
	}
	return seeds
}

// TestSourceMatchesMathRand holds the ported source to math/rand's own, bit
// for bit: every rand.Rand method the repository calls on a simulator's
// Rand, 5,000 draws each, from every seed of sourceSeeds, then again after
// a reseed in the middle of the stream.
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 5000
	methods := []struct {
		name string
		draw func(r *rand.Rand, i int) int64
	}{
		{"Int63", func(r *rand.Rand, _ int) int64 { return r.Int63() }},
		{"Uint64", func(r *rand.Rand, _ int) int64 { return int64(r.Uint64()) }},
		{"Int63n", func(r *rand.Rand, i int) int64 { return r.Int63n(int64(i)*7919 + 1) }},
		{"Int63n-large", func(r *rand.Rand, i int) int64 { return r.Int63n(1<<62 + int64(i)) }},
		{"Intn", func(r *rand.Rand, i int) int64 { return int64(r.Intn(i%1000 + 1)) }},
		{"Float64", func(r *rand.Rand, _ int) int64 { return int64(math.Float64bits(r.Float64())) }},
		{"Shuffle", func(r *rand.Rand, i int) int64 {
			p := []int64{0, 1, 2, 3, 4, 5, 6, int64(i)}
			r.Shuffle(len(p), func(a, b int) { p[a], p[b] = p[b], p[a] })
			return p[0]<<48 | p[1]<<40 | p[2]<<32 | p[3]<<24 | p[4]<<16 | p[5]<<8 | p[6]
		}},
		{"Read", func(r *rand.Rand, i int) int64 {
			b := make([]byte, i%11)
			r.Read(b)
			var v int64
			for _, c := range b {
				v = v*31 + int64(c)
			}
			return v
		}},
	}
	for _, seed := range sourceSeeds() {
		for _, m := range methods {
			src := new(source)
			src.Seed(seed)
			got, want := rand.New(src), rand.New(rand.NewSource(seed))
			for i := 0; i < 2*draws; i++ {
				if i == draws {
					// A mid-stream reseed, as New does on a taken-up simulator.
					reseed := seed ^ 0x5bd1e995
					got.Seed(reseed)
					want.Seed(reseed)
				}
				if g, w := m.draw(got, i), m.draw(want, i); g != w {
					t.Fatalf("seed %d, %s draw %d: %d, math/rand %d", seed, m.name, i, g, w)
				}
			}
		}
	}
}

// TestConcurrentNew seeds simulators from a pool's workers at once, over
// seeds that share slots, each taking up a simulator another released:
// every one draws what math/rand draws for its seed. Run under -race.
func TestConcurrentNew(t *testing.T) {
	const n = 512
	bad := make([]bool, n)
	NewPool(4).Map(n, func(i int) {
		seed := int64(i%40) + int64(i%3)*seedSlots
		s := New(seed)
		want := rand.New(rand.NewSource(seed))
		for j := 0; j < 64; j++ {
			if s.Rand().Int63() != want.Int63() {
				bad[i] = true
				break
			}
		}
		s.Release()
	})
	for i, b := range bad {
		if b {
			t.Errorf("simulator %d: draws differ from math/rand's", i)
		}
	}
}
