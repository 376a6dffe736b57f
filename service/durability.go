package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"blazes/internal/journal"
)

// Durability: every session mutation the service acknowledges is first
// made durable as an op record in an append-only journal (the Session
// mutation ops are atomic and eager-validated, so the journal is literally
// the op stream). On boot the server replays snapshot + journal suffix and
// rebuilds each session by re-opening its CreateRequest and re-applying
// its ops — the same code paths the live handlers use, so a recovered
// session is indistinguishable from one that never crashed (its analysis
// history, which is derived state, starts fresh).
//
// Write protocol (the order is the correctness argument):
//
//  1. apply the mutation to the in-memory session (eager validation);
//  2. append the op record and wait for the group-commit fsync;
//  3. acknowledge the request.
//
// A kill -9 can therefore lose only mutations that were never
// acknowledged. The journal append happens inside a snapMu read-lock so a
// concurrent snapshot (which takes the write lock) always sees a state
// that includes every record at or below the snapshot's covering seq.
//
// If a journal append ever fails (disk full, torn mount), the server
// poisons itself into read-only mode instead of serving acknowledgements
// it cannot honor: subsequent writes shed with 503 and /v1/stats reports
// journal_broken. A session whose mutate batch was applied but not
// journaled answers its reads with 503 too — it holds a state no client
// was told about and a restart reverts — while other sessions keep serving
// reads.

// journalRecord is the service's journal payload: one acknowledged state
// change. Kind selects the fields, mirroring the HTTP surface:
//
//	create  a session was opened (Create holds the full CreateRequest)
//	mutate  ops were applied to Session, in order
//	delete  the session was closed by a client
//	evict   the LRU bound discarded the session (state moves to tombstone)
type journalRecord struct {
	Kind    string         `json:"kind"`
	Session string         `json:"session"`
	Name    string         `json:"name,omitempty"`
	Create  *CreateRequest `json:"create,omitempty"`
	Ops     []MutateOp     `json:"ops,omitempty"`
}

// snapshotDoc is the snapshot payload: the full state needed to rebuild
// the server without any journal suffix. Sessions carry their op streams
// rather than serialized graphs so snapshot recovery and journal replay
// share one rebuild path.
type snapshotDoc struct {
	NextID   int               `json:"next_id"`
	Sessions []sessionSnapshot `json:"sessions"`
	Evicted  []Tombstone       `json:"evicted,omitempty"`
}

type sessionSnapshot struct {
	ID     string        `json:"id"`
	Name   string        `json:"name"`
	Create CreateRequest `json:"create"`
	Ops    []MutateOp    `json:"ops,omitempty"`
}

// Tombstone records a session that no longer occupies memory — evicted by
// the LRU bound, or unrecoverable after a replay error — so list/get
// responses can report what happened to it instead of a bare 404.
type Tombstone struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// State is "evicted" or "unrecoverable".
	State string `json:"state"`
}

// maxTombstones bounds the retained eviction/recovery history (FIFO).
const maxTombstones = 1024

// appendRecord journals one record and blocks until it is durable. The
// caller holds s.snapMu.RLock (see the write protocol above). A failure
// poisons the server read-only and is returned for the 500 response.
func (s *Server) appendRecord(rec journalRecord) error {
	if s.jrn == nil {
		return nil
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding journal record: %w", err)
	}
	if _, err := s.jrn.Append(payload); err != nil {
		s.journalBroken.Store(true)
		return err
	}
	return nil
}

// maybeSnapshot writes a snapshot when the journal has grown snapEvery
// records past the last one. It takes the snapMu write lock, so it runs
// with no append in flight and the doc it writes covers every assigned
// seq. At most one snapshot runs at a time.
func (s *Server) maybeSnapshot() {
	if s.jrn == nil || s.journalBroken.Load() {
		return
	}
	st := s.jrn.Stats()
	if st.LastSeq-st.SnapshotSeq < uint64(s.snapEvery) {
		return
	}
	if !s.snapshotting.CompareAndSwap(false, true) {
		return
	}
	defer s.snapshotting.Store(false)

	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	// Re-check under the lock: a competing writer may have just
	// snapshotted (CAS prevents concurrency, not staleness).
	st = s.jrn.Stats()
	if st.LastSeq-st.SnapshotSeq < uint64(s.snapEvery) {
		return
	}
	doc := s.snapshotLocked()
	payload, err := json.Marshal(doc)
	if err != nil {
		return
	}
	if err := s.jrn.Snapshot(payload); err != nil {
		s.journalBroken.Store(true)
	}
}

// snapshotLocked collects the full server state. Caller holds the snapMu
// write lock (no writer is between apply and append) — entry op slices are
// only appended under the snapMu read lock, so reading them here is safe.
func (s *Server) snapshotLocked() snapshotDoc {
	s.mu.Lock()
	defer s.mu.Unlock()
	// The sessions the boot replay could not rebuild come first: they hold
	// acknowledged records, so every boot retries them. The rest go
	// oldest-first (LRU back to front) so the rebuild's insertion order
	// reproduces the recency order.
	doc := snapshotDoc{NextID: s.nextID, Sessions: append([]sessionSnapshot(nil), s.unrecoverable...)}
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		doc.Sessions = append(doc.Sessions, sessionSnapshot{
			ID:     e.id,
			Name:   e.name,
			Create: e.create,
			Ops:    append([]MutateOp(nil), e.ops...),
		})
	}
	doc.Evicted = append(doc.Evicted, s.tombstones...)
	return doc
}

// rebuildPlan is the cheap phase of recovery: snapshot + journal records
// folded into per-session op streams, before any graph is built.
type rebuildPlan struct {
	nextID   int
	sessions []sessionSnapshot
	evicted  []Tombstone
	skipped  int // records for unknown sessions (benign races, see below)
}

// planRecovery folds the recovered journal into a rebuild plan. Records
// for unknown sessions are skipped, not fatal: a delete racing a mutate
// can journal the delete first while both were correctly acknowledged —
// the end state (session gone) is identical either way. Sessions keep the
// order they come in — the snapshot's, oldest first, then the suffix's
// creates, a session the suffix writes moving to the back — so the replay,
// which inserts each as the most recently used, restores the recency order
// of the writes the journal recorded.
func planRecovery(rec *journal.Recovered) (*rebuildPlan, error) {
	plan := &rebuildPlan{nextID: 0}
	byID := map[string]int{} // session id → index in plan.sessions, -1 = dropped
	if rec.Snapshot != nil {
		var doc snapshotDoc
		if err := decodeStrict(bytes.NewReader(rec.Snapshot), &doc); err != nil {
			return nil, fmt.Errorf("snapshot at seq %d: %w", rec.SnapshotSeq, err)
		}
		plan.nextID = doc.NextID
		plan.sessions = doc.Sessions
		plan.evicted = doc.Evicted
		for i, ss := range plan.sessions {
			byID[ss.ID] = i
		}
	}
	for _, r := range rec.Records {
		var jr journalRecord
		if err := decodeStrict(bytes.NewReader(r.Payload), &jr); err != nil {
			return nil, fmt.Errorf("journal record at seq %d: %w", r.Seq, err)
		}
		switch jr.Kind {
		case "create":
			if jr.Create == nil {
				return nil, fmt.Errorf("create record at seq %d has no request", r.Seq)
			}
			byID[jr.Session] = len(plan.sessions)
			plan.sessions = append(plan.sessions, sessionSnapshot{ID: jr.Session, Name: jr.Name, Create: *jr.Create})
			if n, ok := sessionNumber(jr.Session); ok && n >= plan.nextID {
				plan.nextID = n
			}
		case "mutate":
			i, ok := byID[jr.Session]
			if !ok || i < 0 {
				plan.skipped++
				continue
			}
			// A write makes the session the most recent: it moves to the back,
			// its old place marked dropped as a delete marks it.
			ss := plan.sessions[i]
			ss.Ops = append(ss.Ops, jr.Ops...)
			plan.sessions[i].ID = ""
			byID[jr.Session] = len(plan.sessions)
			plan.sessions = append(plan.sessions, ss)
		case "delete":
			i, ok := byID[jr.Session]
			if !ok || i < 0 {
				plan.skipped++
				continue
			}
			plan.sessions[i].ID = "" // mark dropped; compacted below
			byID[jr.Session] = -1
		case "evict":
			i, ok := byID[jr.Session]
			if !ok || i < 0 {
				plan.skipped++
				continue
			}
			plan.evicted = append(plan.evicted, Tombstone{
				Session: jr.Session,
				Name:    plan.sessions[i].Name,
				Version: uint64(len(plan.sessions[i].Ops)),
				State:   "evicted",
			})
			plan.sessions[i].ID = ""
			byID[jr.Session] = -1
		default:
			return nil, fmt.Errorf("unknown journal record kind %q at seq %d", jr.Kind, r.Seq)
		}
	}
	live := plan.sessions[:0]
	for _, ss := range plan.sessions {
		if ss.ID != "" {
			live = append(live, ss)
		}
	}
	plan.sessions = live
	for _, ss := range plan.sessions {
		if n, ok := sessionNumber(ss.ID); ok && n > plan.nextID {
			plan.nextID = n
		}
	}
	if len(plan.evicted) > maxTombstones {
		plan.evicted = plan.evicted[len(plan.evicted)-maxTombstones:]
	}
	return plan, nil
}

func sessionNumber(id string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n, err == nil && strings.HasPrefix(id, "s")
}

// recoverSessions rebuilds the sessions of the plan and tombstones those it
// cannot. Open runs it before it returns the server, so no request sees a
// half-recovered one; it takes the locks the helpers expect all the same.
func (s *Server) recoverSessions(plan *rebuildPlan) {
	s.snapMu.RLock()
	defer s.snapMu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID = plan.nextID
	for _, t := range plan.evicted {
		s.addTombstoneLocked(t)
	}
	for _, ss := range plan.sessions {
		sess, err := ss.Create.NewSession()
		if err == nil {
			for _, op := range ss.Ops {
				if err = op.Apply(sess); err != nil {
					break
				}
			}
		}
		if err != nil {
			// The journal acknowledged these ops, so failing to replay
			// them is a real fault (likely operator-edited files). Keep
			// serving: tombstone the session, count the damage, and keep
			// its records for the next snapshot, so the next boot tries
			// again instead of finding them compacted away.
			s.replayErrors++
			s.unrecoverable = append(s.unrecoverable, ss)
			s.addTombstoneLocked(Tombstone{Session: ss.ID, Name: ss.Name, State: "unrecoverable"})
			continue
		}
		e := &entry{id: ss.ID, name: ss.Name, sess: sess, create: ss.Create, ops: ss.Ops, recovered: true}
		e.elem = s.lru.PushFront(e)
		s.byID[e.id] = e
		s.evictOverflowLocked()
		s.recoveredCount++
	}
}

// addTombstoneLocked records a tombstone, maintains the id index the fetch
// path uses for O(1) 410 lookups, and enforces the FIFO bound; caller holds
// s.mu. Every tombstone append goes through here — a tombstone in the slice
// without its index entry (or vice versa) would make an evicted session
// flap between 410 and 404.
func (s *Server) addTombstoneLocked(t Tombstone) {
	if i, ok := s.tombIdx[t.Session]; ok {
		// Same session tombstoned again (e.g. replayed evict records):
		// keep one entry, freshest state wins.
		s.tombstones[i-s.tombBase] = t
		return
	}
	s.tombIdx[t.Session] = s.tombBase + len(s.tombstones)
	s.tombstones = append(s.tombstones, t)
	for len(s.tombstones) > maxTombstones {
		delete(s.tombIdx, s.tombstones[0].Session)
		s.tombstones = s.tombstones[1:]
		s.tombBase++
	}
}

// evictOverflowLocked enforces the LRU bound: beyond MaxSessions the least
// recently used session is discarded from memory — but never from the
// journal without a trace: its acknowledged ops are already durable
// (appends are synchronous), an evict record marks the discard for replay,
// and a tombstone keeps the eviction visible in list/get responses.
// Caller holds s.mu and, when durable, s.snapMu.RLock.
func (s *Server) evictOverflowLocked() {
	for len(s.byID) > s.max {
		oldest := s.lru.Back()
		ev := oldest.Value.(*entry)
		s.lru.Remove(oldest)
		delete(s.byID, ev.id)
		s.evictedTotal.Add(1)
		s.addTombstoneLocked(Tombstone{
			Session: ev.id,
			Name:    ev.name,
			Version: ev.sess.Version(),
			State:   "evicted",
		})
		_ = s.appendRecord(journalRecord{Kind: "evict", Session: ev.id})
	}
}
