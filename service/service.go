// Package service embeds the Blazes analysis as a long-running HTTP+JSON
// service: the `blazes serve` subcommand is a thin wrapper around it, and
// any Go program can mount Server.Handler on its own mux. The service
// hosts concurrent analysis sessions (blazes.Session) behind an LRU bound,
// so a client drives the paper's repair loop over the wire: create a
// session from a spec, mutate it (seal, annotate, re-select variants,
// rewire), and re-analyze incrementally — each analysis returns a Report
// v2 whose Delta section says exactly what the last mutation changed.
// Request contexts are honored end to end: an aborted analyze request
// cancels the underlying derivation. Schedule-exploration verification is
// not an endpoint: use `blazes verify` or the blazes/verify package.
//
// The service practices the fault-tolerance discipline it analyzes:
//
//   - Durability (Open with Options.JournalDir): every acknowledged
//     mutation is journaled — fsync-batched into one segment, compacted
//     by a snapshot every 1024 records — and replayed on boot, so a
//     kill -9 loses nothing a client was told succeeded. Open replays the
//     journal before it returns, so the server it hands back holds every
//     journaled session, rebuilt or tombstoned. See durability.go for the
//     write protocol.
//   - Backpressure: the expensive paths (create, mutate, analyze) pass a
//     bounded admission gate; beyond the concurrency
//     slots and the bounded wait queue, requests shed with 429 +
//     Retry-After instead of queueing unboundedly. See admission.go and
//     Server.admitted, the one place such a request is admitted and timed.
//   - Observability: GET /v1/stats reports sessions, journal lag, what
//     the boot replay recovered and dropped, queue depth, shed counts and
//     latency percentiles. See stats.go.
//
// Endpoints (all JSON):
//
//	POST   /v1/sessions              create a session from a spec
//	GET    /v1/sessions              list open sessions (+ tombstones)
//	GET    /v1/sessions/{id}         inspect one session (410 if evicted)
//	POST   /v1/sessions/{id}/mutate  apply a batch of mutations in order
//	POST   /v1/sessions/{id}/analyze incremental (re-)analysis → Report v2
//	DELETE /v1/sessions/{id}         close a session
//	GET    /v1/stats                 load/durability/latency statistics
//	GET    /healthz                  liveness + session count
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"blazes"
	"blazes/internal/hist"
	"blazes/internal/journal"
	"blazes/strategy"
)

// DefaultMaxSessions bounds the number of concurrently open sessions when
// Options.MaxSessions is zero.
const DefaultMaxSessions = 64

// SnapshotEvery is the journal-record interval between snapshots: the write
// whose record is the SnapshotEvery-th past the last snapshot writes the
// next one before it is acknowledged.
const SnapshotEvery = 1024

// DefaultMaxQueue is the admission wait-queue bound when Options.MaxQueue
// is zero.
const DefaultMaxQueue = 256

// DefaultQueueTimeout caps the time a request waits for an admission slot
// when Options.QueueTimeout is zero.
const DefaultQueueTimeout = 2 * time.Second

// Options configures a Server.
type Options struct {
	// MaxSessions caps concurrently open sessions; the least recently
	// used session is evicted when a create would exceed it. 0 selects
	// DefaultMaxSessions.
	MaxSessions int

	// JournalDir, when non-empty, makes the server durable: acknowledged
	// mutations are journaled there and replayed by Open after a restart.
	// New ignores it — only Open wires durability.
	JournalDir string

	// MaxConcurrent bounds concurrently admitted expensive requests
	// (create/mutate/analyze); 0 selects GOMAXPROCS (min 2).
	MaxConcurrent int
	// MaxQueue bounds requests waiting for an admission slot; beyond it
	// requests shed immediately with 429. 0 selects DefaultMaxQueue.
	MaxQueue int
	// QueueTimeout caps the wait for a slot; a request still queued when
	// it fires sheds with 429. 0 selects DefaultQueueTimeout.
	QueueTimeout time.Duration
}

// Server hosts analysis sessions. Create one with New (in-memory) or Open
// (durable) and mount Handler on an http.Server (or use the `blazes
// serve` subcommand). Methods are safe for concurrent use.
type Server struct {
	mu     sync.Mutex
	max    int
	nextID int
	byID   map[string]*entry
	// lru orders entries most-recently-used first.
	lru *list.List
	// tombstones remember evicted/unrecoverable sessions (bounded FIFO).
	// tombIdx maps session id → tombBase-relative position so the fetch
	// path resolves 410s in O(1); tombBase counts entries trimmed off the
	// front, keeping indexed positions stable across trims.
	tombstones []Tombstone
	tombIdx    map[string]int
	tombBase   int
	// unrecoverable holds the sessions the boot replay failed to rebuild,
	// as it found them, for every snapshot to carry.
	unrecoverable []sessionSnapshot

	// Durability (nil jrn = in-memory server). snapMu serializes writers
	// (read lock around apply+journal) against snapshots (write lock), so
	// a snapshot always covers every record at or below its seq. snapEvery
	// is SnapshotEvery; a test shortens it before the first write.
	jrn           *journal.Journal
	snapMu        sync.RWMutex
	snapEvery     int
	snapshotting  atomic.Bool
	journalBroken atomic.Bool

	// What the boot replay found in the journal (nil on in-memory
	// servers), the sessions it rebuilt and those it could not: all fixed
	// by Open before it returns.
	recovery       *RecoveryStats
	recoveredCount int64
	replayErrors   int64

	// Admission + observability. latency holds one histogram per admitted
	// endpoint, under the name /v1/stats reports it by.
	gate             *gate
	evictedTotal     atomic.Uint64
	readOnlyRejected atomic.Uint64
	latency          map[string]*hist.Histogram
}

type entry struct {
	id   string
	name string
	sess *blazes.Session
	elem *list.Element
	// recovered marks a session rebuilt from the journal after a restart.
	recovered bool

	// opMu serializes this session's mutate batches so the journal's
	// per-session record order always matches the apply order. create is
	// the request that opened the session, its durable identity. base is
	// how far the acknowledged version runs ahead of sess.Version(): a
	// recovered session replayed a snapshot's op list, which is shorter
	// than its history.
	opMu   sync.Mutex
	create CreateRequest
	base   uint64
	// normal is the session's normal-form op list at sess.Version()
	// normalAt; only snapshots, which run one at a time, read or write
	// them. At version 0 the graph is the opened one and the list empty.
	normal   []MutateOp
	normalAt uint64
	// unjournaled marks a session holding ops applied in memory whose
	// journal append failed: what it would serve was never acknowledged
	// and a restart reverts it, so its reads answer 503 until then.
	unjournaled atomic.Bool
}

// version is the session's acknowledged version.
func (e *entry) version() uint64 { return e.base + e.sess.Version() }

// New creates an in-memory server (no durability even if opts.JournalDir
// is set — use Open for that).
func New(opts Options) *Server {
	max := opts.MaxSessions
	if max <= 0 {
		max = DefaultMaxSessions
	}
	maxConc := opts.MaxConcurrent
	if maxConc <= 0 {
		maxConc = runtime.GOMAXPROCS(0)
		if maxConc < 2 {
			maxConc = 2
		}
	}
	maxQueue := opts.MaxQueue
	if maxQueue <= 0 {
		maxQueue = DefaultMaxQueue
	}
	queueTimeout := opts.QueueTimeout
	if queueTimeout <= 0 {
		queueTimeout = DefaultQueueTimeout
	}
	return &Server{
		max:       max,
		byID:      map[string]*entry{},
		tombIdx:   map[string]int{},
		lru:       list.New(),
		snapEvery: SnapshotEvery,
		gate:      newGate(maxConc, maxQueue, queueTimeout),
		latency:   map[string]*hist.Histogram{"create": {}, "mutate": {}, "analyze": {}},
	}
}

// Open creates a durable server: it opens (or creates) the journal in
// opts.JournalDir, truncates any torn tail, and replays the journal on the
// caller's goroutine. The server it returns is recovered: every journaled
// session is rebuilt, or tombstoned when it cannot be. With an empty
// JournalDir it is equivalent to New.
func Open(opts Options) (*Server, error) {
	s := New(opts)
	if opts.JournalDir == "" {
		return s, nil
	}
	jrn, recovered, err := journal.Open(opts.JournalDir)
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	plan, err := planRecovery(recovered)
	if err != nil {
		jrn.Close()
		return nil, fmt.Errorf("service: %w", err)
	}
	s.jrn = jrn
	s.recovery = &RecoveryStats{
		SnapshotSeq:    recovered.SnapshotSeq,
		Records:        len(recovered.Records),
		Torn:           recovered.Torn,
		TruncatedBytes: recovered.TruncatedBytes,
		SkippedRecords: plan.skipped,
	}
	s.recoverSessions(plan)
	return s, nil
}

// WaitRecovered returns nil: Open returns a recovered server, so there is
// nothing to wait for. It stays only because the benchmark harness
// (benchmark/serve.go) still calls it; it goes when those calls do.
func (s *Server) WaitRecovered(context.Context) error { return nil }

// Close flushes and closes the journal (a no-op for in-memory servers).
func (s *Server) Close() error {
	if s.jrn == nil {
		return nil
	}
	return s.jrn.Close()
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.admitted("create", true, s.handleCreate))
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGet)
	mux.HandleFunc("POST /v1/sessions/{id}/mutate", s.admitted("mutate", true, s.handleMutate))
	mux.HandleFunc("POST /v1/sessions/{id}/analyze", s.admitted("analyze", false, s.handleAnalyze))
	mux.HandleFunc("GET /v1/sessions/{id}/lint", s.handleLint)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if h, pattern := mux.Handler(r); pattern == "" {
			unmounted(w, r, h)
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// unmounted answers a request no route matches with the status ServeMux's
// handler h gives it, as an ErrorResponse instead of h's plain text: 404
// for an unknown path, 405 with h's Allow header for a method the path is
// not mounted under.
func unmounted(w http.ResponseWriter, r *http.Request, h http.Handler) {
	plain := &statusRecorder{header: http.Header{}}
	h.ServeHTTP(plain, r)
	if plain.code == http.StatusMethodNotAllowed {
		allow := plain.header.Get("Allow")
		w.Header().Set("Allow", allow)
		writeError(w, plain.code, "method %s not allowed on %s (allow: %s)", r.Method, r.URL.Path, allow)
		return
	}
	writeError(w, plain.code, "no route for %s %s", r.Method, r.URL.Path)
}

// statusRecorder keeps the status and headers a handler writes and drops
// its body.
type statusRecorder struct {
	header http.Header
	code   int
}

func (r *statusRecorder) Header() http.Header         { return r.header }
func (r *statusRecorder) WriteHeader(code int)        { r.code = code }
func (r *statusRecorder) Write(p []byte) (int, error) { return len(p), nil }

// SessionCount reports the number of open sessions.
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byID)
}

// touch marks an entry most recently used; the caller holds s.mu.
func (s *Server) touch(e *entry) { s.lru.MoveToFront(e.elem) }

// lookup fetches an entry and bumps its recency.
func (s *Server) lookup(id string) (*entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byID[id]
	if ok {
		s.touch(e)
	}
	return e, ok
}

// fetch is lookup plus the error response: 410 with the tombstone when the
// session was evicted or lost, 404 when it never existed, 503 when it holds
// changes the journal did not record.
func (s *Server) fetch(w http.ResponseWriter, id string) (*entry, bool) {
	e, ok := s.lookup(id)
	if ok {
		if e.unjournaled.Load() {
			writeError(w, http.StatusServiceUnavailable, "session %q holds changes the journal did not record; it serves again after a restart", id)
			return nil, false
		}
		return e, true
	}
	s.mu.Lock()
	var tomb *Tombstone
	if i, ok := s.tombIdx[id]; ok {
		t := s.tombstones[i-s.tombBase]
		tomb = &t
	}
	s.mu.Unlock()
	if tomb != nil {
		writeJSON(w, http.StatusGone, GoneResponse{
			Error:     fmt.Sprintf("session %q is %s", id, tomb.State),
			Tombstone: *tomb,
		})
		return nil, false
	}
	writeError(w, http.StatusNotFound, "unknown session %q", id)
	return nil, false
}

// admitted mounts an expensive endpoint, the one place such a request is
// admitted and timed: it answers 503 when a poisoned journal shuts a
// state-changing request out (available), passes the admission gate (429 +
// Retry-After when shed, 408 when the request dies in the queue), runs h,
// and records the time since arrival — queue wait included — into the
// endpoint's histogram if, and only if, the reply was 2xx.
func (s *Server) admitted(endpoint string, write bool, h http.HandlerFunc) http.HandlerFunc {
	lat := s.latency[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		arrival := time.Now()
		if !s.available(w, write) {
			return
		}
		release, err := s.gate.acquire(r.Context().Done())
		switch {
		case errors.Is(err, errOverloaded):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", s.gate.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, "overloaded: admission queue is full, retry later")
			return
		case err != nil: // the request's own deadline/disconnect fired while queued
			writeError(w, http.StatusRequestTimeout, "request canceled while queued for admission")
			return
		}
		defer release()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		if sw.code >= 200 && sw.code < 300 {
			lat.Observe(time.Since(arrival))
		}
	}
}

// statusWriter remembers the status a handler replied with.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// available rejects a state-changing request (write=true) with 503 once a
// poisoned journal has made the server read-only, so the server never
// acknowledges a mutation it cannot make durable.
func (s *Server) available(w http.ResponseWriter, write bool) bool {
	if write && s.journalBroken.Load() {
		s.readOnlyRejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "journal failed: server is read-only (see /v1/stats)")
		return false
	}
	return true
}

// writeJSON sends v as one compact JSON value and a newline. Replies are
// for programs; a person pipes them through jq.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// ErrorResponse is the wire form of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Applied counts the mutate ops applied before the failing one
	// (mutate responses only).
	Applied int `json:"applied,omitempty"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// GoneResponse is the 410 reply for a session that was evicted or could
// not be recovered: the error and the session's tombstone.
type GoneResponse struct {
	Error     string    `json:"error"`
	Tombstone Tombstone `json:"tombstone"`
}

// maxBodyBytes bounds every request body the service will buffer.
const maxBodyBytes = 8 << 20

// decodeStrict decodes exactly one JSON value, refusing a field v's type
// does not have — a live request body and a journaled one alike, so a field
// the service no longer knows (a parent's "sequencing": true) is named,
// never silently dropped — and refusing any byte after the value but
// whitespace, so a second value or trailing junk is named too.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	off := dec.InputOffset()
	rest := io.MultiReader(dec.Buffered(), r)
	var buf [512]byte
	for {
		n, err := rest.Read(buf[:])
		for _, c := range buf[:n] {
			if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
				return fmt.Errorf("%q at offset %d after the JSON value (a body is exactly one value)", c, off)
			}
			off++
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	return bodyDecoded(w, decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v))
}

// decodeOptionalBody is decodeBody for endpoints whose body may be empty
// (an empty body leaves v at its zero value). Detection is by actually
// decoding — not by Content-Length, which chunked requests don't carry.
func decodeOptionalBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := decodeStrict(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
	if errors.Is(err, io.EOF) {
		return true
	}
	return bodyDecoded(w, err)
}

// bodyDecoded reports whether decoding the body succeeded, answering 413
// for a body past maxBodyBytes and 400 for any other refusal.
func bodyDecoded(w http.ResponseWriter, err error) bool {
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "request body too large: the limit is %d bytes", tooLarge.Limit)
	default:
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// CreateRequest opens a session from a Blazes configuration document (the
// same format `blazes -spec` reads).
type CreateRequest struct {
	// Name labels the dataflow; it defaults to "session".
	Name string `json:"name,omitempty"`
	// Spec is the configuration text (annotations + topology).
	Spec string `json:"spec"`
	// Variants selects named annotation variants per component.
	Variants map[string]string `json:"variants,omitempty"`
	// Seals seals streams on the given key attributes before the first
	// analysis.
	Seals map[string][]string `json:"seals,omitempty"`
	// Strategy is a comma-separated list of coordination strategies
	// synthesis tries, in order, before the default chain (see
	// blazes/strategy; "sealing,sequencing" prefers M1 sequencing over M2
	// dynamic ordering); empty keeps the default chain. An unknown name
	// fails session creation.
	Strategy string `json:"strategy,omitempty"`
}

// NewSession opens the session the request describes. Exported because it
// is the rebuild path shared by the live create handler, crash-recovery
// replay, and external differential checkers (cmd/loadgen): a session is
// its CreateRequest plus an op list that reaches its graph — its
// acknowledged op stream, or a snapshot's shortest list and the journal's
// ops after it.
func (req CreateRequest) NewSession() (*blazes.Session, error) {
	if req.Spec == "" {
		return nil, fmt.Errorf("spec is required")
	}
	spec, err := blazes.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	prefer, err := strategy.Parse(req.Strategy)
	if err != nil {
		return nil, err
	}
	opts := []blazes.Option{blazes.WithVariants(req.Variants), blazes.WithStrategy(prefer...)}
	for stream, key := range req.Seals {
		opts = append(opts, blazes.WithSealRepair(stream, key...))
	}
	return spec.OpenSession(req.SessionName(), opts...)
}

// SessionName returns the request's name with the default applied.
func (req CreateRequest) SessionName() string {
	if req.Name == "" {
		return "session"
	}
	return req.Name
}

// SessionInfo describes one open session.
type SessionInfo struct {
	Session string `json:"session"`
	Name    string `json:"name"`
	Version uint64 `json:"version"`
	// State is "open" for live sessions ("evicted"/"unrecoverable"
	// sessions appear as tombstones, not SessionInfos).
	State string `json:"state"`
	// Recovered marks a session rebuilt from the journal after a restart.
	Recovered  bool     `json:"recovered,omitempty"`
	Components []string `json:"components,omitempty"`
	Streams    []string `json:"streams,omitempty"`
}

func (s *Server) info(e *entry, detail bool) SessionInfo {
	si := SessionInfo{Session: e.id, Name: e.name, Version: e.version(), State: "open", Recovered: e.recovered}
	if detail {
		si.Components = e.sess.ComponentNames()
		si.Streams = e.sess.StreamNames()
	}
	return si
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess, err := req.NewSession()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// The create record goes to the journal before the session becomes
	// visible; the snapMu read lock spans id assignment, append and
	// insertion so a concurrent snapshot cannot cover the record's seq
	// without containing the session.
	s.snapMu.RLock()
	s.mu.Lock()
	s.nextID++
	e := &entry{id: fmt.Sprintf("s%d", s.nextID), name: req.SessionName(), sess: sess, create: req}
	s.mu.Unlock()
	if err := s.appendRecord(journalRecord{Kind: "create", Session: e.id, Name: e.name, Create: &req}); err != nil {
		s.snapMu.RUnlock()
		writeError(w, http.StatusInternalServerError, "journal: %v", err)
		return
	}
	s.mu.Lock()
	e.elem = s.lru.PushFront(e)
	s.byID[e.id] = e
	s.evictOverflowLocked()
	s.mu.Unlock()
	s.snapMu.RUnlock()

	s.maybeSnapshot()
	writeJSON(w, http.StatusCreated, s.info(e, true))
}

// ListResponse is the GET /v1/sessions reply: the open sessions, most
// recently used first, and the retained tombstones. Its fields keep the
// order the keys have always had on the wire.
type ListResponse struct {
	Evicted  []Tombstone   `json:"evicted,omitempty"`
	Sessions []SessionInfo `json:"sessions"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	// Snapshot the entries under the store lock, then query each session
	// after releasing it: Session methods take the session's own mutex,
	// and a session mid-analysis must not stall requests for the others.
	s.mu.Lock()
	entries := make([]*entry, 0, s.lru.Len())
	for el := s.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(*entry))
	}
	tombs := append([]Tombstone(nil), s.tombstones...)
	s.mu.Unlock()
	resp := ListResponse{Sessions: make([]SessionInfo, 0, len(entries)), Evicted: tombs}
	for _, e := range entries {
		resp.Sessions = append(resp.Sessions, s.info(e, false))
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.fetch(w, r.PathValue("id"))
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.info(e, true))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if !s.available(w, true) {
		return
	}
	id := r.PathValue("id")
	s.snapMu.RLock()
	s.mu.Lock()
	e, ok := s.byID[id]
	if ok {
		s.lru.Remove(e.elem)
		delete(s.byID, id)
	}
	s.mu.Unlock()
	var jerr error
	if ok {
		jerr = s.appendRecord(journalRecord{Kind: "delete", Session: id})
	}
	s.snapMu.RUnlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	if jerr != nil {
		writeError(w, http.StatusInternalServerError, "journal: %v", jerr)
		return
	}
	s.maybeSnapshot()
	w.WriteHeader(http.StatusNoContent)
}

// MutateOp is one mutation; Op selects which fields apply:
//
//	{"op":"seal", "stream":"tweets", "key":["batch"]}      seal (empty key unseals)
//	{"op":"annotate", "component":"Count", "from":"words", "to":"counts",
//	 "label":"OW", "subscript":["word","batch"]}           replace a path annotation
//	{"op":"variant", "component":"Report", "variant":"POOR"}
//	{"op":"connect", "stream":"tap", "from":"Count.counts", "to":""}
//	{"op":"remove-edge", "stream":"tap"}
//	{"op":"add-component", "name":"Audit",
//	 "paths":[{"from":"in","to":"out","label":"CW"}]}
type MutateOp struct {
	Op        string    `json:"op"`
	Stream    string    `json:"stream,omitempty"`
	Key       []string  `json:"key,omitempty"`
	Component string    `json:"component,omitempty"`
	From      string    `json:"from,omitempty"`
	To        string    `json:"to,omitempty"`
	Label     string    `json:"label,omitempty"`
	Subscript []string  `json:"subscript,omitempty"`
	Variant   string    `json:"variant,omitempty"`
	Name      string    `json:"name,omitempty"`
	Paths     []PathDef `json:"paths,omitempty"`
}

// PathDef declares one annotated path of an add-component op.
type PathDef struct {
	From      string   `json:"from"`
	To        string   `json:"to"`
	Label     string   `json:"label"`
	Subscript []string `json:"subscript,omitempty"`
}

// MutateRequest applies ops in order; the first failure stops the batch
// (earlier ops stay applied — each op is individually atomic) and the
// response reports how many were applied.
type MutateRequest struct {
	Ops []MutateOp `json:"ops"`
}

// MutateResponse acknowledges an applied batch. Durable reports that the
// applied ops were journaled before this acknowledgement (always true on
// durable servers, false on in-memory ones).
type MutateResponse struct {
	Version uint64 `json:"version"`
	Applied int    `json:"applied"`
	Durable bool   `json:"durable,omitempty"`
}

// Apply applies the op to sess. Exported because it is the replay half of
// the durability contract: crash recovery re-applies a snapshot's op list
// and the journaled ops after it, and differential checkers (cmd/loadgen,
// the recovery tests) the acknowledged op streams, with exactly the
// semantics the mutate endpoint used.
func (op MutateOp) Apply(sess *blazes.Session) error {
	switch op.Op {
	case "seal":
		return sess.SealStream(op.Stream, op.Key...)
	case "annotate":
		ann, err := blazes.ParseAnnotation(op.Label, op.Subscript)
		if err != nil {
			return err
		}
		return sess.Annotate(op.Component, op.From, op.To, ann)
	case "variant":
		return sess.SetVariant(op.Component, op.Variant)
	case "connect":
		return sess.Connect(op.Stream, op.From, op.To)
	case "remove-edge":
		return sess.RemoveEdge(op.Stream)
	case "add-component":
		decls := make([]blazes.PathDecl, 0, len(op.Paths))
		for _, p := range op.Paths {
			ann, err := blazes.ParseAnnotation(p.Label, p.Subscript)
			if err != nil {
				return err
			}
			decls = append(decls, blazes.Path(p.From, p.To, ann))
		}
		return sess.AddComponent(op.Name, decls...)
	default:
		return fmt.Errorf("unknown op %q (want seal, annotate, variant, connect, remove-edge or add-component)", op.Op)
	}
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.fetch(w, r.PathValue("id"))
	if !ok {
		return
	}
	var req MutateRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, "ops is required")
		return
	}

	// Apply, then journal, then acknowledge. opMu keeps this session's
	// journal order identical to its apply order; the snapMu read lock
	// keeps the applied-but-unjournaled window invisible to snapshots.
	e.opMu.Lock()
	s.snapMu.RLock()
	applied := 0
	var opErr error
	for i, op := range req.Ops {
		if err := op.Apply(e.sess); err != nil {
			opErr = fmt.Errorf("op %d (%s): %v", i, op.Op, err)
			break
		}
		applied = i + 1
	}
	var jerr error
	if applied > 0 {
		jerr = s.appendRecord(journalRecord{Kind: "mutate", Session: e.id, Ops: req.Ops[:applied]})
		if jerr != nil {
			e.unjournaled.Store(true)
		}
	}
	s.snapMu.RUnlock()
	e.opMu.Unlock()

	if jerr != nil {
		// The ops are applied in memory but not durable: the server is
		// now poisoned read-only, this session's reads answer 503 (see
		// durability.go) and this batch is NOT acknowledged.
		writeError(w, http.StatusInternalServerError, "journal: %v", jerr)
		return
	}
	if opErr != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: opErr.Error(), Applied: applied})
		return
	}
	s.maybeSnapshot()
	writeJSON(w, http.StatusOK, MutateResponse{Version: e.version(), Applied: applied, Durable: s.jrn != nil})
}

// AnalyzeRequest tunes one analysis; an empty body is a plain Analyze.
type AnalyzeRequest struct {
	// Synthesize additionally emits one coordination strategy per
	// component that needs machinery.
	Synthesize bool `json:"synthesize,omitempty"`
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	e, ok := s.fetch(w, r.PathValue("id"))
	if !ok {
		return
	}
	var req AnalyzeRequest
	if !decodeOptionalBody(w, r, &req) {
		return
	}
	var (
		rep *blazes.Report
		err error
	)
	if req.Synthesize {
		rep, err = e.sess.Synthesize(r.Context())
	} else {
		rep, err = e.sess.Analyze(r.Context())
	}
	if err != nil {
		code := http.StatusUnprocessableEntity
		if errors.Is(err, r.Context().Err()) && r.Context().Err() != nil {
			code = http.StatusRequestTimeout
		}
		writeError(w, code, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// LintResponse carries the severity-ranked BLZnnn graph diagnostics for a
// session's current graph (see the DESIGN.md catalog). Errors marks whether
// any diagnostic has error severity — the same condition under which
// `blazes lint` exits non-zero.
type LintResponse struct {
	Session     string                  `json:"session"`
	Version     uint64                  `json:"version"`
	Errors      bool                    `json:"errors"`
	Diagnostics []blazes.LintDiagnostic `json:"diagnostics"`
}

// handleLint lints the session's current graph. Linting is a read-only
// inspection: it does not mutate the session or disturb the incremental
// analysis state, so it can be polled between mutations.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	e, ok := s.fetch(w, r.PathValue("id"))
	if !ok {
		return
	}
	diags := e.sess.Lint()
	if diags == nil {
		diags = []blazes.LintDiagnostic{}
	}
	writeJSON(w, http.StatusOK, LintResponse{
		Session:     e.id,
		Version:     e.version(),
		Errors:      blazes.HasLintErrors(diags),
		Diagnostics: diags,
	})
}

// HealthResponse is the GET /healthz reply.
type HealthResponse struct {
	OK       bool `json:"ok"`
	Sessions int  `json:"sessions"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{OK: true, Sessions: s.SessionCount()})
}
