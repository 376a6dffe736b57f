// Package storm is a Storm-like distributed stream-processing engine built
// on the discrete-event simulator: topologies of spouts and bolts with
// shuffle/fields/all groupings, batch-granular delivery whose receivers drop
// at-least-once duplicates, and two commit disciplines — *transactional*
// (batches commit in a global total order through the ordering service,
// Storm's "transactional topologies") and *sealed* (batches commit
// independently as soon as their per-batch punctuations arrive, the strategy
// Blazes proves safe for the wordcount of Section VI-A). It is the substrate for the Figure 11
// experiment.
//
// Execution is single-threaded and deterministic: every bolt call, routing
// decision and network-delay draw happens on the simulator's one event
// loop, in schedule order. A topology keeps no package-level state, so
// whole runs may execute concurrently, one simulator each.
package storm

import "fmt"

// Values is a tuple payload: a fixed-arity list of fields.
type Values []string

// Tuple is one message flowing through a topology. Every tuple belongs to a
// batch — the unit of sealing and of commit.
type Tuple struct {
	Batch  int64
	Values Values
}

// String renders the tuple compactly.
func (t Tuple) String() string {
	return fmt.Sprintf("b%d%v", t.Batch, []string(t.Values))
}

// message is the wire format between instances: either a data tuple or a
// batch-end punctuation carrying the producer's per-batch emission count.
// Its identity for deduplication is (from, seq) — unique within the
// receiving instance's batch, because every consumer stage has exactly one
// upstream stage and producers number their per-batch emissions densely.
// The batch rides in tuple.Batch (set even on punctuations, whose Values
// are nil) and a punctuation is told by its seq, so that the message is 48
// bytes and a pooled delivery — message, receiver, topology — exactly one cache
// line. (An earlier revision carried a formatted string id; building and
// hashing those strings dominated the allocation profile.)
type message struct {
	seq   int32 // producer's per-batch emission sequence; -1 for punctuations
	from  int32 // producer instance index within its stage
	count int32 // punctuations: tuples the producer emitted to this consumer for batch
	tuple Tuple
}

// batchEnd reports whether the message is a punctuation.
func (m message) batchEnd() bool { return m.seq < 0 }

// batchID returns the batch the message belongs to.
func (m message) batchID() int64 { return m.tuple.Batch }
