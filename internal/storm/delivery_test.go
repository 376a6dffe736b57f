package storm

import (
	"testing"
	"unsafe"

	"blazes/internal/race"
	"blazes/internal/sim"
)

// TestDeliveryIsOneCacheLine: slabs are arrays of deliveries, so at 64 bytes
// the arrival event — which comes tens of thousands of events after the send
// and finds nothing of it in cache — loads one line per message, not two.
func TestDeliveryIsOneCacheLine(t *testing.T) {
	if size := unsafe.Sizeof(delivery{}); size != 64 {
		t.Fatalf("delivery is %d bytes, want 64", size)
	}
}

// TestDeliverAllocatesNothing pins the pool: once it is warm, sending a
// message and running its arrival allocate nothing, with and without the
// link duplicating it.
func TestDeliverAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, dup := range []float64{0, 1} {
		DrainReleased() // a topology taken up would bring its free list
		s := sim.New(1)
		cfg := DefaultConfig()
		cfg.Link.DupProb = dup
		bolt := &collectorBolt{}
		tp := NewTopology(s, cfg, CommitSealed)
		tp.SetSpout("src", staticSpout{batches: 0}, 1)
		tp.AddCommitter("sink", func(int) Bolt { return bolt }, 1, GlobalGrouping{}, "src")
		if err := tp.Start(); err != nil {
			t.Fatal(err)
		}
		st := tp.stages[0]
		// The same message every time: after its first arrival the receiver
		// drops it as a duplicate, so what is measured is the delivery alone.
		m := message{seq: 0, from: 0, tuple: Tuple{Batch: 0, Values: Values{"v"}}}
		send := func() {
			tp.deliver(st, 0, m, s.Now())
			s.Run()
		}
		send()
		if len(bolt.got) != 1 {
			t.Fatalf("dup %v: the bolt executed %d tuples after the first send, want 1", dup, len(bolt.got))
		}
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("dup %v: deliver and its arrival allocate %v times per message, want 0", dup, allocs)
		}
		if len(bolt.got) != 1 {
			t.Fatalf("dup %v: the bolt executed %d tuples, want 1", dup, len(bolt.got))
		}
		if want := int(1 + dup); len(tp.freeDeliveries) != want {
			t.Errorf("dup %v: %d deliveries on the free list after the run, want %d", dup, len(tp.freeDeliveries), want)
		}
	}
}
