package coord

import (
	"fmt"
	"slices"
	"sort"
)

// Punctuation is a producer's promise that it will emit no further messages
// for a stream partition (Section II / Tucker et al.).
type Punctuation struct {
	Partition string
	Producer  string
}

// String renders the punctuation.
func (p Punctuation) String() string {
	return fmt.Sprintf("seal(%s)@%s", p.Partition, p.Producer)
}

// SealTracker implements the consumer side of the paper's sealing protocol
// (Section V-B1). For each partition it:
//
//  1. buffers arriving data until the partition's complete contents are
//     known;
//  2. tracks per-producer punctuations (the local per-producer protocol);
//  3. performs a unanimous voting round over the partition's producer set
//     (learned from the registry, one lookup per partition): the partition
//     is complete only when *every* producer has sealed it;
//  4. releases the buffered, now-immutable partition for processing.
//
// When a partition has a single producer, the vote degenerates and the
// partition is released as soon as that producer's seal arrives — the
// "independent seal" fast path measured in Figure 14.
type SealTracker struct {
	// index maps a partition to its entry in parts, in first-mention order.
	index map[string]int
	parts []partitionSeal
	// onSealed receives each completed partition exactly once.
	onSealed func(partition string, msgs []int)
}

// partitionSeal is one partition's state. reset keeps every slice's array,
// so a tracker that runs again fills the arrays its last run grew.
type partitionSeal struct {
	known    bool     // the producer vote set is known
	expected []string // the vote set, sorted
	sealedBy []string // producers that have punctuated
	buffer   []int    // data awaiting the seal, as message indexes
	done     bool     // released
}

// NewSealTracker creates a tracker delivering completed partitions to
// onSealed.
func NewSealTracker(onSealed func(partition string, msgs []int)) *SealTracker {
	return &SealTracker{index: map[string]int{}, onSealed: onSealed}
}

// reset empties the tracker for another run, keeping its map, every
// partition's arrays and where it delivers.
func (t *SealTracker) reset() {
	clear(t.index)
	t.parts = t.parts[:0]
}

// part returns partition's state, adding it empty on first mention.
func (t *SealTracker) part(partition string) *partitionSeal {
	k, ok := t.index[partition]
	if !ok {
		k = len(t.parts)
		t.index[partition] = k
		if k < cap(t.parts) {
			t.parts = t.parts[:k+1]
			p := &t.parts[k]
			*p = partitionSeal{expected: p.expected[:0], sealedBy: p.sealedBy[:0], buffer: p.buffer[:0]}
		} else {
			t.parts = append(t.parts, partitionSeal{})
		}
	}
	return &t.parts[k]
}

// SetExpected supplies the producer vote set for a partition (from a
// registry lookup). A partition whose vote set is empty is never released:
// with no producer to punctuate it, nothing says it is complete.
func (t *SealTracker) SetExpected(partition string, producers []string) {
	p := t.part(partition)
	p.expected = append(p.expected[:0], producers...)
	sort.Strings(p.expected)
	p.known = true
	t.maybeRelease(partition, p)
}

// KnowsExpected reports whether the vote set for partition is known.
func (t *SealTracker) KnowsExpected(partition string) bool {
	k, ok := t.index[partition]
	return ok && t.parts[k].known
}

// Reserve sizes a partition's buffer for n messages, so that buffering them
// allocates once. More still fit, by growing; a partition already buffering
// or released is left as it is.
func (t *SealTracker) Reserve(partition string, n int) {
	if p := t.part(partition); len(p.buffer) == 0 && !p.done {
		p.buffer = slices.Grow(p.buffer, n)
	}
}

// Data buffers one message, by its index, for a partition and reports
// whether it could: a message for an already-released partition is dropped
// and reported, since a producer that punctuated a partition broke its
// promise by sending more.
func (t *SealTracker) Data(partition string, msg int) bool {
	p := t.part(partition)
	if p.done {
		return false
	}
	p.buffer = append(p.buffer, msg)
	return true
}

// Seal records a producer's punctuation for a partition and releases the
// partition if the vote is now unanimous.
func (t *SealTracker) Seal(punct Punctuation) {
	p := t.part(punct.Partition)
	if p.done {
		return
	}
	if !slices.Contains(p.sealedBy, punct.Producer) {
		p.sealedBy = append(p.sealedBy, punct.Producer)
	}
	t.maybeRelease(punct.Partition, p)
}

// Sealed reports whether the partition has been released.
func (t *SealTracker) Sealed(partition string) bool {
	k, ok := t.index[partition]
	return ok && t.parts[k].done
}

// maybeRelease performs the unanimous vote on partition, whose state is p.
// onSealed gets the buffer to read and reorder during the call: after it,
// the partition takes no more data, and only a reset refills the array.
func (t *SealTracker) maybeRelease(partition string, p *partitionSeal) {
	if p.done || !p.known || len(p.expected) == 0 {
		return
	}
	for _, producer := range p.expected {
		if !slices.Contains(p.sealedBy, producer) {
			return
		}
	}
	p.done = true
	if t.onSealed != nil {
		t.onSealed(partition, p.buffer)
	}
}
