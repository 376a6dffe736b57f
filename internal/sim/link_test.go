package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomLinkConfig draws a link shape: a latency spread, an at-least-once
// probability (zero half the time, so the coin's absence is covered too),
// and up to three partition windows that may overlap or chain.
func randomLinkConfig(r *rand.Rand) LinkConfig {
	cfg := LinkConfig{MinDelay: Time(r.Intn(50)), MaxDelay: Time(r.Intn(400))}
	if r.Intn(2) == 0 {
		cfg.DupProb = r.Float64()
	}
	for n := r.Intn(4); n > 0; n-- {
		from := Time(r.Intn(800))
		cfg.Partitions = append(cfg.Partitions, PartitionWindow{From: from, Until: from + Time(1+r.Intn(300))})
	}
	return cfg
}

// linkSend is one scripted send; linkArrival one delivery of it.
type linkSend struct {
	key string
	at  Time
}
type linkArrival struct {
	send int
	at   Time
}

// driveLink sends the script over a fresh link in one form and returns the
// deliveries in the order they ran, holding each to what every send
// promises: not before its latency floor, not before the heal of a window it
// was sent into, and under a key not before an earlier send of that key.
func driveLink(t *testing.T, seed int64, cfg LinkConfig, script []linkSend, dup bool) ([]linkArrival, LinkStats) {
	t.Helper()
	s := New(seed)
	l := NewLink(s, cfg)
	var got []linkArrival
	latest := map[string]int{} // per key, the latest send delivered so far
	for i, m := range script {
		fn := func() {
			now := s.Now()
			got = append(got, linkArrival{i, now})
			if now < m.at+cfg.MinDelay {
				t.Fatalf("sent at %d, arrived at %d, under MinDelay %d", m.at, now, cfg.MinDelay)
			}
			for _, w := range cfg.Partitions {
				if w.Contains(m.at) && now < w.Until {
					t.Fatalf("sent at %d inside %+v, arrived at %d, before the heal", m.at, w, now)
				}
			}
			if m.key != Unordered {
				if i < latest[m.key] {
					t.Fatalf("key %q: send %d arrived after send %d", m.key, i, latest[m.key])
				}
				latest[m.key] = i
			}
		}
		if dup {
			l.SendDup(m.key, m.at, Func(fn))
		} else {
			l.Send(m.key, m.at, Func(fn))
		}
	}
	s.Run()
	st := l.Stats()
	if st.Sent != len(script) || st.Delivered != st.Sent+st.Duplicate || len(got) != st.Delivered {
		t.Fatalf("stats %+v with %d deliveries run do not add up over %d sends", st, len(got), len(script))
	}
	return got, st
}

// TestLinkProperties holds the one link to its contract over random shapes
// and random send times: per-key FIFO in send order, partitions waited out,
// counters that add up, and a duplication coin that Send never draws — with
// the coin loaded to always retransmit, Send's schedule does not move.
func TestLinkProperties(t *testing.T) {
	keys := []string{Unordered, "a", "b"}
	for c := int64(0); c < 300; c++ {
		r := rand.New(rand.NewSource(c))
		cfg := randomLinkConfig(r)
		script := make([]linkSend, 60)
		clock := Time(0)
		for i := range script {
			clock += Time(r.Intn(40)) // a sender's clock does not run backwards
			script[i] = linkSend{keys[r.Intn(len(keys))], clock}
		}
		_, st := driveLink(t, c, cfg, script, true)
		if cfg.DupProb == 0 && st.Duplicate != 0 {
			t.Fatalf("case %d: %d duplicates at DupProb 0", c, st.Duplicate)
		}

		once, st := driveLink(t, c, cfg, script, false)
		loaded := cfg
		loaded.DupProb = 1
		again, _ := driveLink(t, c, loaded, script, false)
		if st.Duplicate != 0 || !reflect.DeepEqual(once, again) {
			t.Fatalf("case %d: Send consulted DupProb (%d duplicates; schedules equal: %v)",
				c, st.Duplicate, reflect.DeepEqual(once, again))
		}
	}
}

// TestLinkRoundTrip: a lookup issued while the far end is unreachable
// completes only after the heal, each leg paying its own latency.
func TestLinkRoundTrip(t *testing.T) {
	s := New(1)
	l := NewLink(s, LinkConfig{MinDelay: 2, MaxDelay: 2, Partitions: []PartitionWindow{{From: 10, Until: 50}}})
	var at []Time
	for _, sent := range []Time{0, 9, 20} { // clear; response leg cut; request leg cut
		l.RoundTrip(sent, func() { at = append(at, s.Now()) })
	}
	s.Run()
	if want := []Time{4, 52, 54}; !reflect.DeepEqual(at, want) {
		t.Errorf("round trips completed at %v, want %v", at, want)
	}
	if st := l.Stats(); st.Sent != 6 || st.Delivered != 6 {
		t.Errorf("stats = %+v, want two legs counted per round trip", st)
	}
}
