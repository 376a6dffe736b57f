package service

import (
	"net/http"

	"blazes/internal/hist"
	"blazes/internal/journal"
)

// Observability: GET /v1/stats reports everything needed to reason about
// the server under load — session population, journal lag, what the boot
// replay recovered or dropped, admission queue depth and shed counts, and
// latency percentiles per admitted endpoint — from atomic counters and
// lock-free histograms, so the endpoint itself stays cheap enough to poll
// during overload.

// LatencySummary is one endpoint's latency section, microsecond units: the
// 2xx replies, each timed from arrival (queue wait included) to the end of
// its handler. See internal/hist for the quantile rule and its error bound.
type LatencySummary = hist.Summary

// StatsResponse is the /v1/stats document.
type StatsResponse struct {
	// Sessions is the live session count; Evicted the retained tombstone
	// count and EvictedTotal the all-time LRU evictions this process.
	Sessions     int    `json:"sessions"`
	MaxSessions  int    `json:"max_sessions"`
	Evicted      int    `json:"evicted"`
	EvictedTotal uint64 `json:"evicted_total"`

	// Durable is true when a journal backs the server. Recovering is true
	// while the boot replay is still rebuilding sessions (writes shed with
	// 503); RecoveredSessions counts sessions rebuilt so far this boot and
	// ReplayErrors sessions the journal acknowledged but could not be
	// rebuilt. JournalBroken means an append failed and the server
	// poisoned itself read-only.
	Durable           bool           `json:"durable"`
	Recovering        bool           `json:"recovering"`
	RecoveredSessions int64          `json:"recovered_sessions"`
	ReplayErrors      int64          `json:"replay_errors,omitempty"`
	JournalBroken     bool           `json:"journal_broken,omitempty"`
	Journal           *journal.Stats `json:"journal,omitempty"`
	Recovery          *RecoveryStats `json:"recovery,omitempty"`

	Admission AdmissionStats `json:"admission"`

	// Latency maps endpoint → summary for the admitted endpoints.
	Latency map[string]LatencySummary `json:"latency"`
}

// RecoveryStats is what the boot replay of a durable server found in its
// journal: the snapshot it started from and how many records followed it,
// the torn tail Open cut away, and the records it skipped because their
// session was already gone (a delete journaled ahead of a racing mutate).
type RecoveryStats struct {
	SnapshotSeq    uint64 `json:"snapshot_seq"`
	Records        int    `json:"records"`
	Torn           bool   `json:"torn"`
	TruncatedBytes int64  `json:"truncated_bytes"`
	SkippedRecords int    `json:"skipped_records"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	sessions := len(s.byID)
	tombs := len(s.tombstones)
	s.mu.Unlock()

	resp := StatsResponse{
		Sessions:          sessions,
		MaxSessions:       s.max,
		Evicted:           tombs,
		EvictedTotal:      s.evictedTotal.Load(),
		Durable:           s.jrn != nil,
		Recovering:        s.recovering.Load(),
		RecoveredSessions: s.recoveredCount.Load(),
		ReplayErrors:      s.replayErrors.Load(),
		JournalBroken:     s.journalBroken.Load(),
		Recovery:          s.recovery,
		Admission:         s.gate.stats(),
		Latency:           make(map[string]LatencySummary, len(s.latency)),
	}
	for endpoint, h := range s.latency {
		resp.Latency[endpoint] = h.Summary()
	}
	resp.Admission.ReadOnlyRejected = s.readOnlyRejected.Load()
	if s.jrn != nil {
		st := s.jrn.Stats()
		resp.Journal = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
