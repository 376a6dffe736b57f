package storm_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"blazes/internal/race"
	"blazes/internal/sim"
	"blazes/internal/storm"
	"blazes/internal/wc"
)

var update = flag.Bool("update", false, "rewrite testdata/schedule.golden")

// scheduleScenario is one fault shape of the schedule golden.
type scheduleScenario struct {
	name  string
	shape func(*storm.Config)
}

var scheduleScenarios = []scheduleScenario{
	{"clean", func(*storm.Config) {}},
	{"dup", func(c *storm.Config) { c.Link.DupProb = 0.1 }},
	{"partition", func(c *storm.Config) {
		c.Link.Partitions = []sim.PartitionWindow{{From: 3 * sim.Millisecond, Until: 15 * sim.Millisecond}}
	}},
	{"unpunctuated", func(c *storm.Config) {
		c.Punctuate = false
		c.FlushTimeout = 8 * sim.Millisecond
	}},
}

// scheduleLine runs one wordcount topology, wired as wc.Run wires it, and
// renders what the schedule decides: the simulator's step count, the engine
// metrics, the store's first-commit order and a digest of its rows. The
// topology opens with 4,800 spout sends pending at once, so the simulator's
// event queue is past the size at which its bucket ring comes in. It
// returns the topology, which the caller may release.
func scheduleLine(t *testing.T, mode storm.CommitMode, sc scheduleScenario, seed int64) (string, *storm.Topology) {
	t.Helper()
	const workers = 4
	s := sim.New(seed)
	cfg := storm.DefaultConfig()
	cfg.Link.MaxDelay = 6 * sim.Millisecond
	sc.shape(&cfg)
	store := wc.NewStore()
	spout := &wc.TweetSpout{Batches: 4, TuplesPerBatch: 300, WordsPerTweet: 4, Vocab: wc.SyntheticVocabulary(60)}
	tp := storm.NewTopology(s, cfg, mode)
	tp.SetSpout("tweets", spout, workers)
	tp.AddBolt("split", func(int) storm.Bolt { return wc.Splitter{} }, workers, storm.ShuffleGrouping{}, "tweets")
	tp.AddBolt("count", func(int) storm.Bolt { return wc.NewCount() }, workers, storm.FieldsGrouping{Fields: []int{0}}, "split")
	tp.AddCommitter("commit", func(int) storm.Bolt { return wc.NewCommit(store) }, workers, storm.FieldsGrouping{Fields: []int{0}}, "count")
	if err := tp.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(2 * sim.Second)

	var rows []string
	for batch, counts := range store.Snapshot() {
		for word, n := range counts {
			rows = append(rows, fmt.Sprintf("%d/%s=%d", batch, word, n))
		}
	}
	sort.Strings(rows)
	h := fnv.New64a()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	line := fmt.Sprintf("%s %s seed=%d steps=%d pending=%d done=%v metrics=%+v order=%v rows=%d store=%016x",
		mode, sc.name, seed, s.Steps(), s.Pending(), tp.Done(), tp.Metrics(), store.CommitOrder(), len(rows), h.Sum64())
	s.Release()
	return line, tp
}

// eachSchedule calls f for every line of the schedule golden, in order.
func eachSchedule(f func(storm.CommitMode, scheduleScenario, int64)) {
	for _, mode := range []storm.CommitMode{storm.CommitSealed, storm.CommitTransactional} {
		for _, sc := range scheduleScenarios {
			for seed := int64(1); seed <= 3; seed++ {
				f(mode, sc, seed)
			}
		}
	}
}

// TestScheduleGolden holds the engine to a recorded schedule.
// testdata/schedule.golden was generated on the commit that still had the
// single heap and one closure per message, so the clean, partition and
// unpunctuated lines compare the event queue and the delivery pool with the
// old engine and not only with the current one. The dup lines were recorded
// again when a duplicate stopped making a finished instance resend its
// output; their rows and stores are the old engine's.
func TestScheduleGolden(t *testing.T) {
	const golden = "testdata/schedule.golden"
	var b strings.Builder
	eachSchedule(func(mode storm.CommitMode, sc scheduleScenario, seed int64) {
		line, _ := scheduleLine(t, mode, sc, seed)
		b.WriteString(line)
		b.WriteByte('\n')
	})
	got := b.String()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				w := "<missing>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("schedule moved at line %d:\n--- got\n%s\n--- want\n%s", i+1, gl[i], w)
			}
		}
		t.Fatalf("schedule.golden has %d lines, the run produced %d", len(wl), len(gl))
	}
}

// TestReleasedTopologyMatchesNew holds a topology taken up from a release to
// a new one. Every schedule.golden scenario runs on a new topology, then
// again on the topology the run before it released: runs that stopped at
// their deadline with deliveries in flight, duplicates, and, for the first,
// a wordcount of another shape. Each
// pair of lines must be the same.
func TestReleasedTopologyMatchesNew(t *testing.T) {
	if !race.Enabled {
		// A pool hands back on the P it was given on, so one P makes the
		// take-up certain; under -race the pool drops some at random.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	var fresh []string
	eachSchedule(func(mode storm.CommitMode, sc scheduleScenario, seed int64) {
		storm.DrainReleased()
		line, _ := scheduleLine(t, mode, sc, seed)
		fresh = append(fresh, line)
	})

	storm.DrainReleased()
	engine := storm.DefaultConfig()
	engine.Link.DupProb = 0.2
	if _, err := wc.Run(wc.RunConfig{Seed: 9, Workers: 7, Batches: 3, TuplesPerBatch: 40, Mode: storm.CommitTransactional,
		Punctuate: true, Engine: &engine, Deadline: 30 * sim.Millisecond}); err != nil {
		t.Fatal(err)
	}
	k := 0
	var last *storm.Topology
	eachSchedule(func(mode storm.CommitMode, sc scheduleScenario, seed int64) {
		line, tp := scheduleLine(t, mode, sc, seed)
		if !race.Enabled && last != nil && tp != last {
			t.Fatalf("%s: the run did not take up the topology released before it", line)
		}
		if line != fresh[k] {
			t.Errorf("taken-up topology:\n%s\nnew topology:\n%s", line, fresh[k])
		}
		tp.Release()
		last = tp
		k++
	})
}
