package coord

import (
	"fmt"
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
	// expected maps partition → producer vote set (nil until known).
	expected map[string][]string
	// sealedBy maps partition → producers that have punctuated.
	sealedBy map[string]map[string]bool
	// buffer holds per-partition data awaiting the seal, as message
	// indexes.
	buffer map[string][]int
	// done marks released partitions.
	done map[string]bool
	// onSealed receives each completed partition exactly once.
	onSealed func(partition string, msgs []int)
}

// NewSealTracker creates a tracker delivering completed partitions to
// onSealed.
func NewSealTracker(onSealed func(partition string, msgs []int)) *SealTracker {
	return &SealTracker{
		expected: map[string][]string{},
		sealedBy: map[string]map[string]bool{},
		buffer:   map[string][]int{},
		done:     map[string]bool{},
		onSealed: onSealed,
	}
}

// SetExpected supplies the producer vote set for a partition (from a
// registry lookup). A partition whose vote set is empty is never released:
// with no producer to punctuate it, nothing says it is complete.
func (t *SealTracker) SetExpected(partition string, producers []string) {
	ps := append([]string(nil), producers...)
	sort.Strings(ps)
	t.expected[partition] = ps
	t.maybeRelease(partition)
}

// KnowsExpected reports whether the vote set for partition is known.
func (t *SealTracker) KnowsExpected(partition string) bool {
	_, ok := t.expected[partition]
	return ok
}

// Reserve sizes a partition's buffer for n messages, so that buffering them
// allocates once. More still fit, by growing; a partition already buffering
// or released is left as it is.
func (t *SealTracker) Reserve(partition string, n int) {
	if _, ok := t.buffer[partition]; !ok && n > 0 && !t.done[partition] {
		t.buffer[partition] = make([]int, 0, n)
	}
}

// Data buffers one message, by its index, for a partition and reports
// whether it could: a message for an already-released partition is dropped
// and reported, since a producer that punctuated a partition broke its
// promise by sending more.
func (t *SealTracker) Data(partition string, msg int) bool {
	if t.done[partition] {
		return false
	}
	t.buffer[partition] = append(t.buffer[partition], msg)
	return true
}

// Seal records a producer's punctuation for a partition and releases the
// partition if the vote is now unanimous.
func (t *SealTracker) Seal(p Punctuation) {
	if t.done[p.Partition] {
		return
	}
	set, ok := t.sealedBy[p.Partition]
	if !ok {
		set = map[string]bool{}
		t.sealedBy[p.Partition] = set
	}
	set[p.Producer] = true
	t.maybeRelease(p.Partition)
}

// Sealed reports whether the partition has been released.
func (t *SealTracker) Sealed(partition string) bool { return t.done[partition] }

// maybeRelease performs the unanimous vote.
func (t *SealTracker) maybeRelease(partition string) {
	if t.done[partition] {
		return
	}
	expected, known := t.expected[partition]
	if !known || len(expected) == 0 {
		return
	}
	votes := t.sealedBy[partition]
	for _, producer := range expected {
		if !votes[producer] {
			return
		}
	}
	t.done[partition] = true
	msgs := t.buffer[partition]
	delete(t.buffer, partition)
	if t.onSealed != nil {
		t.onSealed(partition, msgs)
	}
}
