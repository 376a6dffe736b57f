package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"blazes"
	"blazes/internal/dataflow"
	"blazes/internal/journal"
	ispec "blazes/internal/spec"
)

// Durability: every session mutation the service acknowledges is first
// made durable as an op record in an append-only journal (the Session
// mutation ops are atomic and eager-validated, so the journal is literally
// the op stream). A snapshot holds each session's state, not its history:
// its CreateRequest and the shortest op list that takes the graph the
// request opens to the session's graph (normalForm). On boot the server
// replays snapshot + journal suffix and rebuilds each session by re-opening
// its CreateRequest and re-applying the snapshot's ops, then the suffix's —
// the same code paths the live handlers use, so a recovered session is
// indistinguishable from one that never crashed (its analysis history,
// which is derived state, starts fresh). Only its Version() is shorter than
// its history; the entry keeps the difference.
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
// the server without any journal suffix. Sessions carry their create
// requests and normal-form op lists rather than serialized graphs, so
// snapshot recovery and journal replay share one rebuild path, and a
// snapshot is bounded by the sessions' graphs, not by their histories.
type snapshotDoc struct {
	NextID   int               `json:"next_id"`
	Sessions []sessionSnapshot `json:"sessions"`
	Evicted  []Tombstone       `json:"evicted,omitempty"`
}

// sessionSnapshot is one session of a snapshot. Version is its acknowledged
// version, which replaying Ops alone would not reach. A snapshot with no
// version field stored each session's whole history, so there the version
// is the number of ops.
type sessionSnapshot struct {
	ID      string        `json:"id"`
	Name    string        `json:"name"`
	Create  CreateRequest `json:"create"`
	Ops     []MutateOp    `json:"ops,omitempty"`
	Version uint64        `json:"version,omitempty"`
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
	// Without a snapshot every record stays in the journal, so a session
	// whose op list cannot be built loses nothing; it only goes uncompacted.
	doc, err := s.snapshotLocked()
	if err != nil {
		return
	}
	payload, err := json.Marshal(doc)
	if err != nil {
		return
	}
	if err := s.jrn.Snapshot(payload); err != nil {
		s.journalBroken.Store(true)
	}
}

// snapshotLocked collects the full server state. The caller holds the
// snapMu write lock, so no session changes while it runs. It holds s.mu
// only to collect the entries and reads each session's graph after, so a
// list or get request never waits on another session's analysis.
func (s *Server) snapshotLocked() (snapshotDoc, error) {
	s.mu.Lock()
	// The sessions the boot replay could not rebuild come first: they hold
	// acknowledged records, so every boot retries them. The rest go
	// oldest-first (LRU back to front) so the rebuild's insertion order
	// reproduces the recency order.
	doc := snapshotDoc{NextID: s.nextID, Sessions: append([]sessionSnapshot(nil), s.unrecoverable...)}
	doc.Evicted = append(doc.Evicted, s.tombstones...)
	entries := make([]*entry, 0, s.lru.Len())
	for el := s.lru.Back(); el != nil; el = el.Prev() {
		entries = append(entries, el.Value.(*entry))
	}
	s.mu.Unlock()
	for _, e := range entries {
		// At version 0 the graph is the one the request opens. A session
		// unchanged since the last snapshot keeps the list made then.
		if v := e.sess.Version(); v != e.normalAt {
			ops, err := normalForm(e.create, e.sess.Graph())
			if err != nil {
				return snapshotDoc{}, fmt.Errorf("session %s: %w", e.id, err)
			}
			e.normal, e.normalAt = ops, v
		}
		doc.Sessions = append(doc.Sessions, sessionSnapshot{ID: e.id, Name: e.name, Create: e.create, Ops: e.normal, Version: e.version()})
	}
	return doc, nil
}

// normalForm returns the shortest op list that takes the graph req opens to
// g, in this order:
//
//  1. remove-edge for every opened stream that does not survive;
//  2. add-component for every component the opened graph lacks;
//  3. for every other component whose paths changed, at most one variant
//     op, then one annotate op per from→to whose annotation differs;
//  4. connect for every stream that is no survivor, in order;
//  5. seal for every stream whose seal differs.
//
// The survivors are the longest leading run of g's streams that the opened
// graph declares in the same order and wiring: Connect appends and
// RemoveEdge keeps the order of the rest, so no op list keeps more. Every op
// reads only the graph, the opened spec and the strategy list, so a session
// replayed from the list holds a graph equal to g and answers every later op
// as the session holding g does.
func normalForm(req CreateRequest, g *blazes.Graph) ([]MutateOp, error) {
	cfg, err := ispec.Parse(req.Spec)
	if err != nil {
		return nil, err
	}
	// The graph NewSession opens, without the session around it.
	opened, err := cfg.Graph(req.SessionName(), ispec.BuildOptions{Variants: req.Variants})
	if err != nil {
		return nil, err
	}
	for stream, key := range req.Seals {
		if st := opened.Stream(stream); st != nil {
			st.Seal = blazes.Attrs(key...)
		}
	}

	var ops []MutateOp
	streams, kept := g.Streams(), 0 // streams[:kept] survive
	for _, st := range opened.Streams() {
		if kept < len(streams) && sameWiring(st, streams[kept]) {
			kept++
			continue
		}
		ops = append(ops, MutateOp{Op: "remove-edge", Stream: st.Name})
	}
	for _, c := range g.Components() {
		if opened.Lookup(c.Name) == nil {
			defs := make([]PathDef, len(c.Paths))
			for i, p := range c.Paths {
				defs[i].From, defs[i].To = p.From, p.To
				defs[i].Label, defs[i].Subscript = annotationLabel(p.Ann)
			}
			ops = append(ops, MutateOp{Op: "add-component", Name: c.Name, Paths: defs})
		}
	}
	for _, c := range g.Components() {
		was := opened.Lookup(c.Name)
		if was == nil || slices.EqualFunc(was.Paths, c.Paths, pathEqual) {
			continue
		}
		// Start from the opened paths or from the spec's base or variant
		// paths one variant op selects: the start with c's from→to sequence
		// that needs the fewest annotate ops.
		best, found := annotateOps(c, was.Paths)
		for _, v := range append([]string{""}, cfg.Component(c.Name).VariantOrder...) {
			paths, err := cfg.VariantPaths(c.Name, v)
			if err != nil {
				return nil, err
			}
			if more, ok := annotateOps(c, paths); ok && (!found || len(more)+1 < len(best)) {
				best, found = append([]MutateOp{{Op: "variant", Component: c.Name, Variant: v}}, more...), true
			}
		}
		if !found {
			return nil, fmt.Errorf("component %q: no variant op and annotate ops reach its paths", c.Name)
		}
		ops = append(ops, best...)
	}
	for _, st := range streams[kept:] {
		ops = append(ops, MutateOp{Op: "connect", Stream: st.Name, From: endpoint(st.FromComp, st.FromIface), To: endpoint(st.ToComp, st.ToIface)})
	}
	for i, st := range streams {
		var was blazes.AttrSet // a connected stream is unsealed
		if i < kept {
			was = opened.Stream(st.Name).Seal
		}
		if !st.Seal.Equal(was) {
			ops = append(ops, MutateOp{Op: "seal", Stream: st.Name, Key: st.Seal.Attrs()})
		}
	}
	return ops, nil
}

// annotateOps returns the annotate ops that turn paths into c's, one per
// from→to whose annotation differs, and whether they do: the from→to
// sequences must be equal, and since an annotate op sets every path of its
// from→to, those paths must end with one annotation.
func annotateOps(c *blazes.Component, paths []dataflow.Path) ([]MutateOp, bool) {
	if len(paths) != len(c.Paths) {
		return nil, false
	}
	var ops []MutateOp
	for i, p := range c.Paths {
		if paths[i].From != p.From || paths[i].To != p.To {
			return nil, false
		}
		if annotationEqual(paths[i].Ann, p.Ann) || slices.ContainsFunc(ops, func(op MutateOp) bool { return op.From == p.From && op.To == p.To }) {
			continue
		}
		for _, q := range c.Paths {
			if q.From == p.From && q.To == p.To && !annotationEqual(q.Ann, p.Ann) {
				return nil, false
			}
		}
		label, sub := annotationLabel(p.Ann)
		ops = append(ops, MutateOp{Op: "annotate", Component: c.Name, From: p.From, To: p.To, Label: label, Subscript: sub})
	}
	return ops, true
}

// sameWiring reports whether two streams have one name, endpoints and Rep.
func sameWiring(a, b *blazes.Stream) bool {
	return a.Name == b.Name && a.FromComp == b.FromComp && a.FromIface == b.FromIface &&
		a.ToComp == b.ToComp && a.ToIface == b.ToIface && a.Rep == b.Rep
}

func pathEqual(a, b dataflow.Path) bool {
	return a.From == b.From && a.To == b.To && annotationEqual(a.Ann, b.Ann)
}

func annotationEqual(a, b blazes.Annotation) bool {
	return a.Confluent == b.Confluent && a.Write == b.Write && a.GateStar == b.GateStar && a.Gate.Equal(b.Gate)
}

// annotationLabel returns the label and subscript ParseAnnotation reads
// back as a: "CR", "CW", "OR*" and "OW*" alone, "OR" and "OW" with the gate.
func annotationLabel(a blazes.Annotation) (string, []string) {
	if a.Confluent || a.GateStar {
		return a.String(), nil
	}
	return a.String()[:2], a.Gate.Attrs()
}

// endpoint is the "Component.iface" a connect op names; "" for an external
// end.
func endpoint(comp, iface string) string {
	if comp == "" {
		return ""
	}
	return comp + "." + iface
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
			if ss.Version == 0 { // a snapshot that stored histories
				plan.sessions[i].Version = uint64(len(ss.Ops))
			}
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
			ss.Version += uint64(len(jr.Ops))
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
				Version: plan.sessions[i].Version,
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
		e := &entry{id: ss.ID, name: ss.Name, sess: sess, create: ss.Create, base: ss.Version - sess.Version(), recovered: true}
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
			Version: ev.version(),
			State:   "evicted",
		})
		_ = s.appendRecord(journalRecord{Kind: "evict", Session: ev.id})
	}
}
