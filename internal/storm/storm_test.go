package storm

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"blazes/internal/sim"
)

func TestShuffleGroupingSingleTargetInRange(t *testing.T) {
	prop := func(r int64, n uint8) bool {
		if n == 0 {
			return true
		}
		if r < 0 {
			r = -r
		}
		targets := ShuffleGrouping{}.Route(Tuple{}, int(n), r, nil)
		return len(targets) == 1 && targets[0] >= 0 && targets[0] < int(n)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFieldsGroupingStableAndKeyed(t *testing.T) {
	g := FieldsGrouping{Fields: []int{0}}
	a := g.Route(Tuple{Values: Values{"word", "1"}}, 8, 0, nil)
	b := g.Route(Tuple{Values: Values{"word", "2"}}, 8, 99, nil)
	if !reflect.DeepEqual(a, b) {
		t.Error("same key must route to the same instance regardless of randomness")
	}
	// Different keys should spread (not all to one instance).
	seen := map[int]bool{}
	for _, w := range []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"} {
		seen[g.Route(Tuple{Values: Values{w}}, 8, 0, nil)[0]] = true
	}
	if len(seen) < 2 {
		t.Error("fields grouping failed to spread distinct keys")
	}
}

func TestGlobalGroupingRoutesToZero(t *testing.T) {
	if got := (GlobalGrouping{}).Route(Tuple{}, 7, 12345, nil); !reflect.DeepEqual(got, []int{0}) {
		t.Errorf("targets = %v", got)
	}
}

func TestTupleAndModeStrings(t *testing.T) {
	tp := Tuple{Batch: 3, Values: Values{"a", "b"}}
	if tp.String() != "b3[a b]" {
		t.Errorf("String = %q", tp.String())
	}
	if CommitSealed.String() != "sealed" || CommitTransactional.String() != "transactional" {
		t.Error("mode strings wrong")
	}
}

// collectorBolt records every tuple it sees and forwards it.
type collectorBolt struct {
	got      []Tuple
	finished []int64
}

func (c *collectorBolt) Execute(t Tuple, emit Emitter) {
	c.got = append(c.got, t)
	if emit != nil {
		emit(Tuple{Values: t.Values})
	}
}

func (c *collectorBolt) FinishBatch(b int64, _ Emitter) { c.finished = append(c.finished, b) }

// staticSpout emits fixed tuples: batches × tuplesPer per instance.
type staticSpout struct {
	batches   int64
	tuplesPer int
}

func (s staticSpout) NextBatch(instance int, batch int64) ([]Values, bool) {
	if batch >= s.batches {
		return nil, false
	}
	out := make([]Values, s.tuplesPer)
	for i := range out {
		out[i] = Values{"v"}
	}
	return out, true
}

func TestTopologyStartErrors(t *testing.T) {
	s := sim.New(1)
	tp := NewTopology(s, DefaultConfig(), CommitSealed)
	if err := tp.Start(); err == nil {
		t.Error("want error for missing spout")
	}
	tp.SetSpout("src", staticSpout{1, 1}, 1)
	if err := tp.Start(); err == nil {
		t.Error("want error for missing bolts")
	}
	tp.AddBolt("b", func(int) Bolt { return &collectorBolt{} }, 1, ShuffleGrouping{}, "nope")
	if err := tp.Start(); err == nil {
		t.Error("want error for unknown upstream")
	}
}

func TestSingleStagePipelineDeliversAllTuples(t *testing.T) {
	s := sim.New(2)
	bolt := &collectorBolt{}
	tp := NewTopology(s, DefaultConfig(), CommitSealed)
	tp.SetSpout("src", staticSpout{batches: 3, tuplesPer: 10}, 2)
	tp.AddCommitter("sink", func(int) Bolt { return bolt }, 1, GlobalGrouping{}, "src")
	if err := tp.Start(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if len(bolt.got) != 3*10*2 {
		t.Errorf("got %d tuples, want 60", len(bolt.got))
	}
	if !tp.Done() {
		t.Error("topology should be done")
	}
	m := tp.Metrics()
	if m.AckedBatches != 3 || m.EmittedTuples != 60 {
		t.Errorf("metrics = %+v", m)
	}
	// FinishBatch ran once per batch.
	sort.Slice(bolt.finished, func(i, j int) bool { return bolt.finished[i] < bolt.finished[j] })
	if !reflect.DeepEqual(bolt.finished, []int64{0, 1, 2}) {
		t.Errorf("finished = %v", bolt.finished)
	}
}

func TestMaxInFlightBoundsPipelining(t *testing.T) {
	s := sim.New(3)
	cfg := DefaultConfig()
	cfg.MaxInFlight = 1
	var order []int64
	tp := NewTopology(s, cfg, CommitSealed)
	tp.SetSpout("src", staticSpout{batches: 4, tuplesPer: 2}, 1)
	tp.AddCommitter("sink", func(int) Bolt { return &orderBolt{order: &order} }, 1, GlobalGrouping{}, "src")
	if err := tp.Start(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	// With MaxInFlight=1, batches must arrive strictly in order even in
	// sealed mode (no overlap exists to reorder).
	if !reflect.DeepEqual(order, []int64{0, 1, 2, 3}) {
		t.Errorf("order = %v", order)
	}
}

type orderBolt struct{ order *[]int64 }

func (o *orderBolt) Execute(Tuple, Emitter) {}
func (o *orderBolt) FinishBatch(b int64, _ Emitter) {
	*o.order = append(*o.order, b)
}

func TestThroughputMetric(t *testing.T) {
	m := Metrics{EmittedTuples: 1000, FinishedAt: sim.Second}
	if got := m.Throughput(); got != 1000 {
		t.Errorf("Throughput = %v, want 1000 tuples/s", got)
	}
	if (Metrics{}).Throughput() != 0 {
		t.Error("zero-time throughput must be 0")
	}
}

// TestTransactionalStrictOrderUnderStress: many batches, wide parallelism,
// aggressive reordering; commits must still be strictly ordered.
func TestTransactionalStrictOrderUnderStress(t *testing.T) {
	s := sim.New(11)
	cfg := DefaultConfig()
	cfg.Link.MaxDelay = 10 * sim.Millisecond // heavy reordering
	var order []int64
	seenBatch := map[int64]bool{}
	tp := NewTopology(s, cfg, CommitTransactional)
	tp.SetSpout("src", staticSpout{batches: 12, tuplesPer: 5}, 3)
	tp.AddCommitter("sink", func(int) Bolt { return &txOrderBolt{order: &order, seen: seenBatch} }, 3, ShuffleGrouping{}, "src")
	if err := tp.Start(); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !tp.Done() {
		t.Fatal("topology incomplete")
	}
	for i, b := range order {
		if b != int64(i) {
			t.Fatalf("first-commit order = %v: transactional order violated", order)
		}
	}
}

type txOrderBolt struct {
	order *[]int64
	seen  map[int64]bool
}

func (o *txOrderBolt) Execute(Tuple, Emitter) {}
func (o *txOrderBolt) FinishBatch(int64, Emitter) {
}
func (o *txOrderBolt) Commit(b int64) {
	if !o.seen[b] {
		o.seen[b] = true
		*o.order = append(*o.order, b)
	}
}
