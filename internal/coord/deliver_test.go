package coord

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
)

// sealedRun installs msgs under sealing on two replicas over a link of at
// most a millisecond, runs it, and returns when each message was applied at
// replica 0 (-1 if never) with the run's counters and error.
func sealedRun(t *testing.T, msgs []Message) ([]sim.Time, Counters, error) {
	t.Helper()
	s := sim.New(1)
	applied := make([]sim.Time, len(msgs))
	for i := range applied {
		applied[i] = -1
	}
	d := Delivery{
		Sim:      s,
		Link:     sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: sim.Millisecond},
		Replicas: 2,
		Msgs:     msgs,
		Apply: func(ri, i int) {
			if msgs[i].Seal {
				t.Errorf("a punctuation (message %d) was applied", i)
			}
			if ri == 0 {
				applied[i] = s.Now()
			}
		},
	}
	if err := d.Install(dataflow.CoordSealed); err != nil {
		t.Fatal(err)
	}
	s.Run()
	c, err := d.Result()
	return applied, c, err
}

// TestInstallSendsEachKeyInListOrder: a producer's punctuation travels its
// FIFO stream where the list puts it, so a partition it closes folds
// before that producer's later data for another partition arrives. Sent
// after all of the key's data, p's seal would be clamped behind A's datum
// for q, a second later.
func TestInstallSendsEachKeyInListOrder(t *testing.T) {
	const late = sim.Second
	msgs := []Message{
		{At: 0, Producer: "A", Partition: "p"},
		{At: 0, Producer: "B", Partition: "p"},
		{At: sim.Millisecond, Producer: "A", Partition: "p", Seal: true},
		{At: sim.Millisecond, Producer: "B", Partition: "p", Seal: true},
		{At: late, Producer: "A", Partition: "q"},
		{At: late, Producer: "A", Partition: "q", Seal: true},
		{At: 2 * sim.Millisecond, Partition: "p", Read: true},
	}
	applied, c, err := sealedRun(t, msgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 1, 6} {
		if applied[i] < 0 || applied[i] >= late {
			t.Errorf("message %d of partition p applied at %v, want before A's datum for q leaves at %v", i, applied[i], late)
		}
	}
	if applied[4] < late {
		t.Errorf("A's datum for q applied at %v, before it was sent", applied[4])
	}
	if c.RegistryLookups != 2*2 || c.Held != 0 || c.BufferCount != 2*3 {
		t.Errorf("counters %+v, want 4 lookups, no read held and 6 data buffered", c)
	}
}

// TestInstallFailsOnDataAfterItsSeal: a producer that punctuates a
// partition and then sends it another datum broke its promise. The list
// below makes it do so on its own FIFO stream, so the datum arrives after
// the partition released, and the run fails naming the replica, the
// partition and the message.
func TestInstallFailsOnDataAfterItsSeal(t *testing.T) {
	msgs := []Message{
		{At: 0, Producer: "A", Partition: "p"},
		{At: sim.Millisecond, Producer: "A", Partition: "p", Seal: true},
		{At: 20 * sim.Millisecond, Producer: "A", Partition: "p"},
	}
	_, _, err := sealedRun(t, msgs)
	if err == nil {
		t.Fatal("a datum listed after its producer's seal did not fail the run")
	}
	for _, want := range []string{"replica 0", "message 2", `partition "p"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}

// TestInstallHoldsReadsOfUnsealedPartitions: a read of a partition no
// producer punctuates is held to the end, at every replica.
func TestInstallHoldsReadsOfUnsealedPartitions(t *testing.T) {
	msgs := []Message{
		{At: 0, Producer: "A", Partition: "p"},
		{At: sim.Millisecond, Producer: "A", Partition: "p", Seal: true},
		{At: 0, Producer: "A", Partition: "q"},
		{At: 2 * sim.Millisecond, Partition: "q", Read: true},
		{At: 2 * sim.Millisecond, Partition: "p", Read: true},
	}
	applied, c, err := sealedRun(t, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if applied[2] >= 0 || applied[3] >= 0 || applied[4] < 0 {
		t.Errorf("applied at %v: want q's datum and read held, p's read answered", applied)
	}
	if c.Held != 2 {
		t.Errorf("%d reads held, want 2 (one per replica)", c.Held)
	}
}

// applied is one message handed to one replica, and when.
type applied struct {
	ri, i int
	at    sim.Time
}

// installRun installs msgs on replicas replicas under mech with a link that
// reorders, duplicates and partitions, runs it to quiescence and returns
// every Apply in order with the counters and the error; the Delivery comes
// back unreleased.
func installRun(t *testing.T, mech dataflow.Coordination, seed int64, replicas int, msgs []Message) (*Delivery, []applied, Counters, error) {
	t.Helper()
	s := sim.New(seed)
	link := sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 6 * sim.Millisecond, DupProb: 0.25,
		Partitions: []sim.PartitionWindow{{From: 3 * sim.Millisecond, Until: 9 * sim.Millisecond}}}
	seq := DefaultSequencer
	seq.SubmitDelay, seq.DeliverDelay = link, link
	var got []applied
	d := &Delivery{
		Sim:       s,
		Link:      link,
		Sequencer: seq,
		Quorum:    QuorumConfig{Delivery: link, HeartbeatEvery: 2 * sim.Millisecond},
		Replicas:  replicas,
		Msgs:      msgs,
		Apply:     func(ri, i int) { got = append(got, applied{ri, i, s.Now()}) },
	}
	for i, m := range msgs {
		if !m.Seal {
			d.Order = append(d.Order, i)
		}
	}
	if err := d.Install(mech); err != nil {
		t.Fatal(err)
	}
	s.Run()
	c, err := d.Result()
	return d, got, c, err
}

// installMsgs lists n data messages per producer of producers, spread over
// two partitions, each producer's seals after its data, and reads of one
// partition, of every partition and of one nothing seals among them.
func installMsgs(producers, n int) []Message {
	var msgs []Message
	for p := range producers {
		name := string(rune('A' + p))
		for i := range n {
			msgs = append(msgs, Message{At: sim.Time(i) * sim.Millisecond, Producer: name,
				Partition: []string{"p", "q"}[i%2], Once: i%3 == 0})
			if i == n/2 {
				msgs = append(msgs, Message{At: sim.Time(i) * sim.Millisecond, Partition: "p", Read: true, Once: true})
			}
		}
		for _, part := range []string{"p", "q"} {
			msgs = append(msgs, Message{At: sim.Time(n) * sim.Millisecond, Producer: name, Partition: part, Seal: true})
		}
	}
	return append(msgs, Message{At: 2 * sim.Millisecond, Partition: AllPartitions, Read: true, Once: true},
		Message{At: 3 * sim.Millisecond, Partition: "unsealed", Read: true, Once: true})
}

// TestReleasedDeliveryMatchesFresh: an installation that takes up what an
// earlier one released — its carved handlers, sealing replicas and
// trackers, sequencer and records, whichever mechanism and size the earlier
// run had — hands every replica the same messages at the same instants,
// with the same counters, as one on fresh memory, under every mechanism.
func TestReleasedDeliveryMatchesFresh(t *testing.T) {
	// One processor, so what a run puts in the pool is what the next gets.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	mechs := []dataflow.Coordination{dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder,
		dataflow.CoordQuorumOrder, dataflow.CoordSealed, dataflow.CoordPartitionSealed}
	target, small, large := installMsgs(2, 6), installMsgs(1, 2), installMsgs(3, 12)
	for _, mech := range mechs {
		for released.Get() != nil {
		}
		fresh, want, wantC, wantErr := installRun(t, mech, 7, 2, target)
		fresh.Release()
		if len(want) == 0 {
			t.Fatalf("%s: nothing was applied", mech)
		}
		for _, prev := range mechs {
			for _, primer := range []struct {
				replicas int
				msgs     []Message
			}{{1, small}, {3, large}} {
				// The race detector drops a pooled value now and then, so
				// prime until the run takes up the primer's memory.
				for attempt := 0; ; attempt++ {
					d, _, _, _ := installRun(t, prev, 3, primer.replicas, primer.msgs)
					k := d.kept
					d.Release()
					d, got, c, err := installRun(t, mech, 7, 2, target)
					took := d.kept == k
					d.Release()
					if !took {
						if attempt == 20 {
							t.Fatalf("%s never took up what a %s run released", mech, prev)
						}
						continue
					}
					if !reflect.DeepEqual(got, want) || c != wantC || fmt.Sprint(err) != fmt.Sprint(wantErr) {
						t.Errorf("%s after a released %s run on %d replicas: applied %v, counters %+v, error %v; fresh applied %v, counters %+v, error %v",
							mech, prev, primer.replicas, got, c, err, want, wantC, wantErr)
					}
					break
				}
			}
		}
	}
}
