package sim

// PartitionWindow is an interval during which a link is cut. Messages sent
// while the window is open are buffered at the sender and transmitted when
// the partition heals (at Until) — the partition-then-heal fault the chaos
// harness injects. Messages already in flight when the window opens are
// unaffected (they left the sender before the cut).
type PartitionWindow struct {
	From  Time `json:"from"`
	Until Time `json:"until"`
}

// Contains reports whether t falls inside the window.
func (w PartitionWindow) Contains(t Time) bool { return t >= w.From && t < w.Until }

// LinkConfig shapes the delivery behaviour of a simulated network channel.
type LinkConfig struct {
	// MinDelay/MaxDelay bound the uniformly drawn per-message latency.
	// MaxDelay > MinDelay yields nondeterministic interleavings across
	// links — the root cause of the paper's anomalies.
	MinDelay, MaxDelay Time
	// DupProb is the probability a message is delivered twice (modelling
	// at-least-once delivery and sender retry).
	DupProb float64
	// Partitions lists windows during which the link is cut; see
	// PartitionWindow. Windows may overlap; the latest heal time wins.
	Partitions []PartitionWindow
}

// Delay draws one uniform per-message latency from the simulator's rng,
// treating MaxDelay < MinDelay as a fixed MinDelay latency.
func (cfg LinkConfig) Delay(s *Sim) Time {
	delay := cfg.MinDelay
	if span := cfg.MaxDelay - cfg.MinDelay; span > 0 {
		delay += Time(s.rng.Int63n(int64(span) + 1))
	}
	return delay
}

// Release pushes a tentative arrival time past any partition window open at
// send time: a message sent while the link is partitioned waits at the
// sender until the window heals, then takes its drawn latency. If another
// window is already open at the heal instant (chained or overlapping
// partitions), the message keeps waiting.
func (cfg LinkConfig) Release(sent, arrival Time) Time {
	latency := arrival - sent
	for {
		heal := Time(-1)
		for _, w := range cfg.Partitions {
			if w.Contains(sent) && w.Until > heal {
				heal = w.Until
			}
		}
		if heal < 0 {
			return sent + latency
		}
		sent = heal // strictly later: Contains(sent) implies sent < Until
	}
}

// Arrival draws a latency and returns the partition-adjusted delivery time
// for a message sent at the current simulator time.
func (cfg LinkConfig) Arrival(s *Sim) Time {
	sent := s.Now()
	return cfg.Release(sent, sent+cfg.Delay(s))
}

// DefaultLAN mimics a low-latency datacenter link with mild reordering.
var DefaultLAN = LinkConfig{MinDelay: 200 * Microsecond, MaxDelay: 2 * Millisecond}

// LinkStats counts what a link did with the messages handed to it. The
// counts are taken when a message is sent — its arrival is decided then and
// nothing cancels it — so Delivered == Sent + Duplicate always.
type LinkStats struct {
	Sent      int
	Delivered int
	Duplicate int
}

// Unordered is the FIFO key of a message that rides no ordered stream.
const Unordered = ""

// Link is one simulated network hop, and the one place a message is sent:
// it draws the latency, holds the message through any partition open at its
// send time, duplicates it per the configuration, and keeps each keyed
// stream FIFO — all determined by the simulator's seed. A message is a
// Handler, scheduled as is: a send allocates nothing of its own, and a caller
// that carves its handlers from one slice per run allocates nothing per
// message either (a closure passes as Func). It takes the time the message
// leaves its sender (a workload lays out its schedule up front; a protocol
// passes Now) and a FIFO key: under a key other than Unordered a message
// never arrives before an earlier send of the same key, so a sender's
// punctuations and watermarks cannot overtake its data. Different keys
// reorder freely; keys are per link, so ordered streams into different
// endpoints take a link each.
type Link struct {
	sim   *Sim
	cfg   LinkConfig
	last  map[string]Time // latest arrival per FIFO key
	stats LinkStats
}

// NewLink creates a link on s shaped by cfg.
func NewLink(s *Sim, cfg LinkConfig) *Link { return &Link{sim: s, cfg: cfg} }

// Send carries one message exactly once: h fires at the arrival of a message
// sent at sent. Nothing retransmits it, so DupProb is not consulted.
func (l *Link) Send(key string, sent Time, h Handler) {
	l.stats.Sent++
	l.sim.Schedule(l.arrival(key, sent), h)
}

// SendDup carries one message at least once: with probability DupProb the
// sender retransmits and h fires a second time, at a latency of its own
// (under a key, in FIFO order behind the first).
func (l *Link) SendDup(key string, sent Time, h Handler) {
	l.stats.Sent++
	l.sim.Schedule(l.arrival(key, sent), h)
	if l.cfg.DupProb > 0 && l.sim.rng.Float64() < l.cfg.DupProb {
		l.stats.Duplicate++
		l.sim.Schedule(l.arrival(key, sent), h)
	}
}

// RoundTrip carries a request sent at sent and, from the instant it arrives,
// its response, both exactly once and unordered; fn runs when the response
// arrives. Either leg waits out a partition open when it leaves.
func (l *Link) RoundTrip(sent Time, fn func()) {
	l.stats.Sent++
	l.Send(Unordered, l.arrival(Unordered, sent), Func(fn))
}

// arrival decides when one delivery of a message sent at sent arrives: a
// drawn latency after any partition open at sent heals and, under a FIFO
// key, no earlier than the key's previous arrival.
func (l *Link) arrival(key string, sent Time) Time {
	l.stats.Delivered++
	at := l.cfg.Release(sent, sent+l.cfg.Delay(l.sim))
	if key == Unordered {
		return at
	}
	if prev := l.last[key]; at < prev {
		at = prev
	}
	if l.last == nil {
		l.last = map[string]Time{}
	}
	l.last[key] = at
	return at
}

// Stats returns the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }
