package coord

import (
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
