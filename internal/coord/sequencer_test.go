package coord

import (
	"reflect"
	"testing"
	"testing/quick"

	"blazes/internal/sim"
)

// runSequencer submits n messages from several simulated clients and
// returns each subscriber's observed order.
func runSequencer(seed int64, subscribers, n int) [][]uint64 {
	s := sim.New(seed)
	q := NewSequencer(s, DefaultSequencer)
	orders := make([][]uint64, subscribers)
	for i := range orders {
		i := i
		q.Subscribe(func(m Sequenced) { orders[i] = append(orders[i], m.Seq) })
	}
	for i := 0; i < n; i++ {
		i := i
		// Clients race: staggered submission with overlapping windows.
		s.At(sim.Time(i%7)*sim.Millisecond, func() { q.Submit(i) })
	}
	s.Run()
	return orders
}

// TestTotalOrderAcrossSubscribers: the defining property of the ordering
// service — every subscriber sees exactly the same sequence.
func TestTotalOrderAcrossSubscribers(t *testing.T) {
	prop := func(seed int64) bool {
		orders := runSequencer(seed, 3, 40)
		for i := 1; i < len(orders); i++ {
			if !reflect.DeepEqual(orders[0], orders[i]) {
				return false
			}
		}
		return len(orders[0]) == 40
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Errorf("subscribers observed different orders: %v", err)
	}
}

// TestSequenceIsGapFreeAndMonotone: sequence numbers are 1..n in delivery
// order for each subscriber.
func TestSequenceIsGapFreeAndMonotone(t *testing.T) {
	orders := runSequencer(7, 2, 25)
	for _, order := range orders {
		if len(order) != 25 {
			t.Fatalf("delivered %d of 25", len(order))
		}
		for i, seq := range order {
			if seq != uint64(i+1) {
				t.Fatalf("order = %v: not gap-free monotone", order)
			}
		}
	}
}

// TestSequencerSerializationCost: messages pass through a serial bottleneck;
// total completion time is bounded below by n × ProcessingCost.
func TestSequencerSerializationCost(t *testing.T) {
	s := sim.New(1)
	cfg := SequencerConfig{
		SubmitDelay:    sim.LinkConfig{MinDelay: 1, MaxDelay: 1},
		DeliverDelay:   sim.LinkConfig{MinDelay: 1, MaxDelay: 1},
		ProcessingCost: sim.Millisecond,
	}
	q := NewSequencer(s, cfg)
	delivered := 0
	q.Subscribe(func(Sequenced) { delivered++ })
	const n = 50
	for i := 0; i < n; i++ {
		q.Submit(i) // all at t=0: they must queue
	}
	s.Run()
	if delivered != n {
		t.Fatalf("delivered %d of %d", delivered, n)
	}
	if s.Now() < n*sim.Millisecond {
		t.Errorf("finished at %v; serial cost should force ≥ %v", s.Now(), sim.Time(n)*sim.Millisecond)
	}
}

// TestSequencerDeterministicPerSeed: the decided order is reproducible.
func TestSequencerDeterministicPerSeed(t *testing.T) {
	msgOrder := func(seed int64) []int {
		s := sim.New(seed)
		q := NewSequencer(s, DefaultSequencer)
		var got []int
		q.Subscribe(func(m Sequenced) { got = append(got, m.Msg.(int)) })
		for i := 0; i < 30; i++ {
			i := i
			s.At(sim.Time(i%5)*sim.Millisecond, func() { q.Submit(i) })
		}
		s.Run()
		return got
	}
	if !reflect.DeepEqual(msgOrder(11), msgOrder(11)) {
		t.Error("same seed must decide the same order")
	}
	same := true
	for seed := int64(12); seed < 20 && same; seed++ {
		same = reflect.DeepEqual(msgOrder(11), msgOrder(seed))
	}
	if same {
		t.Error("different seeds should eventually decide different orders (M2 is run-nondeterministic)")
	}
}

func TestSequencerCounters(t *testing.T) {
	s := sim.New(2)
	q := NewSequencer(s, DefaultSequencer)
	delivered := 0
	q.Subscribe(func(Sequenced) { delivered++ })
	q.Subscribe(func(Sequenced) { delivered++ })
	for i := 0; i < 10; i++ {
		q.Submit(i)
	}
	s.Run()
	if q.Submitted() != 10 {
		t.Errorf("Submitted = %d", q.Submitted())
	}
	if delivered != 20 {
		t.Errorf("%d deliveries, want 10×2 subscribers", delivered)
	}
}
