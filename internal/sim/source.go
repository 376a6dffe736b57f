package sim

import (
	"math/rand"
	"sync"
)

// source is math/rand's additive lagged Fibonacci generator (Mitchell and
// Reeds; $GOROOT/src/math/rand/rng.go), ported so that seeding it can copy
// a seed's state instead of computing it. It draws exactly what
// rand.NewSource draws for the same seed, and a simulator's rand.Rand wraps
// one, so every schedule is the one math/rand's own source gave.
//
// Seeding math/rand's source runs 1,841 steps of a Lehmer generator to fill
// its 607 words; a sweep seeds thousands of simulators a pass with the same
// few seeds. Seed here copies the state out of seededTable instead, filling
// a slot only the first time its seed is met.
type source struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
)

// Seed sets the state a fresh rand.NewSource(seed) starts in.
func (src *source) Seed(seed int64) {
	x := seedKey(seed)
	e := &seededTable[uint32(x)%seedSlots]
	e.mu.Lock()
	if e.key != x {
		seedVec(&e.vec, x)
		e.key = x
	}
	src.vec = e.vec
	e.mu.Unlock()
	src.tap, src.feed = 0, rngLen-rngTap
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (src *source) Int63() int64 { return int64(src.Uint64() & rngMask) }

// Uint64 returns a pseudo-random 64-bit integer.
func (src *source) Uint64() uint64 {
	src.tap--
	if src.tap < 0 {
		src.tap += rngLen
	}
	src.feed--
	if src.feed < 0 {
		src.feed += rngLen
	}
	x := src.vec[src.feed] + src.vec[src.tap]
	src.vec[src.feed] = x
	return uint64(x)
}

// seedSlots is the number of seeds whose state seededTable holds at once:
// a slot keeps the last seed that mapped to it. A sweep's seeds run 1…n,
// so up to this many of them never evict each other.
const seedSlots = 256

// seededState is one slot of seededTable: the state seed key starts in.
type seededState struct {
	mu sync.Mutex
	// key is the seed as seedKey reduces it, or 0 for an empty slot
	// (seedKey never returns 0).
	key int32
	vec [rngLen]int64
}

// seededTable caches seeded states for every simulator of the process. It
// is a package-level array, so it costs no allocation, and a slot's state
// is a function of its key alone: what a seed draws does not depend on
// which seeds came before it or on which goroutine filled the slot.
var seededTable [seedSlots]seededState

// seedKey reduces a seed as math/rand's Seed does: two seeds with one key
// draw the same numbers.
func seedKey(seed int64) int32 {
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	return int32(seed)
}

// seedVec fills vec with the state seed key starts in.
func seedVec(vec *[rngLen]int64, key int32) {
	seedMaterial(vec, key)
	for i := range vec {
		vec[i] ^= rngCooked[i]
	}
}

// seedMaterial fills vec with the Lehmer sequence that seeding mixes into
// the cooked table: the state before the mix.
func seedMaterial(vec *[rngLen]int64, key int32) {
	x := key
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			u := int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			vec[i] = u
		}
	}
}

// seedrand is one step of x[n+1] = 48271 * x[n] mod (2**31 - 1).
func seedrand(x int32) int32 {
	const (
		a = 48271
		q = 44488
		r = 3399
	)
	hi := x / q
	lo := x % q
	x = a*lo - r*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// rngCooked is the table math/rand mixes into every seeded state, recovered
// from math/rand itself rather than copied: a fresh source's first rngLen
// draws determine the state it started in, and that state is the seed's
// material XOR the table.
var rngCooked = cookedTable()

func cookedTable() *[rngLen]int64 {
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var out [rngLen]int64
	for i := range out {
		out[i] = int64(src.Uint64())
	}
	// Draw k adds vec[feed] and vec[tap] and stores the sum at feed, with
	// feed = 333−k and tap = 606−k, both mod rngLen. From draw 273 on, tap
	// reads the sum draw k−273 stored while feed still reads a first-seen
	// word, so draws 273…606 give words 60…0 and 606…334; draws 0…272 then
	// give words 333…61 from words 606…334.
	var vec [rngLen]int64
	const lag = rngLen - rngTap // 334
	for k := rngTap; k < rngLen; k++ {
		vec[(lag-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[lag-1-k] = out[k] - vec[rngLen-1-k]
	}
	var material [rngLen]int64
	seedMaterial(&material, seedKey(seed))
	for i := range vec {
		vec[i] ^= material[i]
	}
	return &vec
}
