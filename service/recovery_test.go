package service

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blazes/internal/journal"
)

// newDurable opens a journaled server on dir, failing the test on any
// error.
func newDurable(t *testing.T, dir string, opts Options) *Server {
	t.Helper()
	opts.JournalDir = dir
	srv, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// randomOp draws one mutation from a pool of ops against the wordcount
// spec. Some draws are invalid in some states (removing an edge that is
// not there); the caller tracks which ops were acknowledged, which is
// exactly the durability contract under test.
func randomOp(rng *rand.Rand) MutateOp {
	switch rng.Intn(7) {
	case 0:
		return MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	case 1:
		return MutateOp{Op: "seal", Stream: "tweets"} // unseal
	case 2:
		return MutateOp{Op: "annotate", Component: "Count", From: "words", To: "counts", Label: "OW", Subscript: []string{"word", "batch"}}
	case 3:
		return MutateOp{Op: "annotate", Component: "Splitter", From: "tweets", To: "words", Label: "OR", Subscript: []string{"id"}}
	case 4:
		return MutateOp{Op: "connect", Stream: "tap", From: "Count.counts", To: ""}
	case 5:
		return MutateOp{Op: "remove-edge", Stream: "tap"}
	default:
		return MutateOp{Op: "annotate", Component: "Commit", From: "counts", To: "db", Label: "CW"}
	}
}

// TestRecoveryDifferential is the acceptance check for the durability
// tentpole: feed many sessions randomized op sequences through a journaled
// server, crash it (no Close — the journal must already be durable),
// recover, and require every recovered session's analysis to be
// byte-identical to a fresh in-memory server fed the same acknowledged
// sequence. Only acknowledged ops count: that is the contract.
func TestRecoveryDifferential(t *testing.T) {
	const sessions = 100
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{MaxSessions: sessions})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	rng := rand.New(rand.NewSource(7))

	acked := make([][]MutateOp, sessions)
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i+1)
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: id, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
		n := 3 + rng.Intn(8)
		for k := 0; k < n; k++ {
			op := randomOp(rng)
			code, body := call(t, h, "POST", "/v1/sessions/"+id+"/mutate", MutateRequest{Ops: []MutateOp{op}})
			switch code {
			case http.StatusOK:
				acked[i] = append(acked[i], op)
			case http.StatusBadRequest:
				// invalid in this state; not acknowledged, not expected back
			default:
				t.Fatalf("mutate %s: %d %s", id, code, body)
			}
		}
	}
	// Crash: drop the server without Close. Every acknowledged append has
	// already been fsynced, so the journal on disk is the full record.
	srv = nil

	re := newDurable(t, dir, Options{MaxSessions: sessions})
	defer re.Close()
	rh := re.Handler()
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("s%d", i+1)
		code, got := call(t, rh, "GET", "/v1/sessions/"+id, nil)
		if code != http.StatusOK {
			t.Fatalf("recovered get %s: %d %s", id, code, got)
		}
		info := reply[SessionInfo](t, got)
		if !info.Recovered {
			t.Errorf("%s should report recovered: %s", id, got)
		}
		if want := uint64(len(acked[i])); info.Version != want {
			t.Errorf("%s: want version %d in %s", id, want, got)
		}

		_, gotRep := call(t, rh, "POST", "/v1/sessions/"+id+"/analyze", nil)

		// Differential oracle: a fresh in-memory server fed the same
		// acknowledged sequence must produce the same bytes.
		fresh := New(Options{})
		fh := fresh.Handler()
		if code, body := call(t, fh, "POST", "/v1/sessions", CreateRequest{Name: id, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("fresh create: %d %s", code, body)
		}
		if len(acked[i]) > 0 {
			if code, body := call(t, fh, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: acked[i]}); code != http.StatusOK {
				t.Fatalf("fresh replay %s: %d %s", id, code, body)
			}
		}
		_, wantRep := call(t, fh, "POST", "/v1/sessions/s1/analyze", nil)
		if gotRep != wantRep {
			t.Errorf("%s: recovered analysis differs from fresh replay\n got: %s\nwant: %s", id, gotRep, wantRep)
		}
	}
}

// recoveryStats reads the recovery section of a durable server's /v1/stats.
func recoveryStats(t *testing.T, h http.Handler) RecoveryStats {
	t.Helper()
	code, body := call(t, h, "GET", "/v1/stats", nil)
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil || code != http.StatusOK || st.Recovery == nil {
		t.Fatalf("stats: %d %s (decode err %v)", code, body, err)
	}
	return *st.Recovery
}

// TestRecoveryTornTail writes garbage at the logical end of a valid journal
// (a torn final write; the segment is presized, so that is where a crash
// tears it, not at EOF) and requires recovery to keep every acknowledged
// op, drop the tail, report what it dropped in /v1/stats, and stay
// writable.
func TestRecoveryTornTail(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: "keep", Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal segments (%v)", err)
	}
	data, err := os.ReadFile(wals[len(wals)-1])
	if err != nil {
		t.Fatal(err)
	}
	records, _, err := journal.DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(wals[len(wals)-1], os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x13, 0x37, 0xde, 0xad, 0xbe}, int64(len(journal.EncodeRecords(records)))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := newDurable(t, dir, Options{})
	defer re.Close()
	rh := re.Handler()
	if code, body := call(t, rh, "GET", "/v1/sessions/s1", nil); code != http.StatusOK || reply[SessionInfo](t, body).Version != 1 {
		t.Fatalf("recovered s1: %d %s", code, body)
	}
	if got, want := recoveryStats(t, rh), (RecoveryStats{Records: 2, Torn: true, TruncatedBytes: 5}); got != want {
		t.Errorf("recovery stats = %+v, want %+v", got, want)
	}
	// The server must still be writable, and ids must not be reused.
	if code, body := call(t, rh, "POST", "/v1/sessions", CreateRequest{Name: "after", Spec: spec}); code != http.StatusCreated || reply[SessionInfo](t, body).Session != "s2" {
		t.Fatalf("create after torn-tail recovery: %d %s", code, body)
	}
}

// TestRecoveryDeleteAndEvict checks that deletes and LRU evictions are
// part of the durable history: a deleted session stays deleted after a
// restart, and an evicted one comes back as a tombstone, not a session.
func TestRecoveryDeleteAndEvict(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{MaxSessions: 2})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	for i := 1; i <= 3; i++ {
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: fmt.Sprintf("n%d", i), Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, code, body)
		}
	}
	// s1 was evicted by the LRU bound; now delete s2 explicitly.
	if code, _ := call(t, h, "DELETE", "/v1/sessions/s2", nil); code != http.StatusNoContent {
		t.Fatalf("delete s2: %d", code)
	}
	srv = nil // crash

	re := newDurable(t, dir, Options{MaxSessions: 2})
	defer re.Close()
	rh := re.Handler()
	if code, body := call(t, rh, "GET", "/v1/sessions/s1", nil); code != http.StatusGone || reply[GoneResponse](t, body).Tombstone.State != "evicted" {
		t.Errorf("s1 should be a tombstone after restart: %d %s", code, body)
	}
	if code, _ := call(t, rh, "GET", "/v1/sessions/s2", nil); code != http.StatusNotFound {
		t.Errorf("s2 should stay deleted after restart (code %d)", code)
	}
	if code, body := call(t, rh, "GET", "/v1/sessions/s3", nil); code != http.StatusOK {
		t.Errorf("s3 should survive restart: %d %s", code, body)
	}
	// New ids continue after the highest ever assigned.
	if code, body := call(t, rh, "POST", "/v1/sessions", CreateRequest{Spec: spec}); code != http.StatusCreated || reply[SessionInfo](t, body).Session != "s4" {
		t.Errorf("create after restart: %d %s", code, body)
	}
}

// TestRecoverySnapshotCompaction drives enough records to trigger
// snapshots and checks the compacted journal still recovers everything.
func TestRecoverySnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{})
	srv.snapEvery = 8
	h := srv.Handler()
	spec := wordcountSpecText(t)
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: "snap", Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	unseal := MutateOp{Op: "seal", Stream: "tweets"}
	for i := 0; i < 20; i++ {
		op := seal
		if i%2 == 1 {
			op = unseal
		}
		if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{op}}); code != http.StatusOK {
			t.Fatalf("mutate %d: %d %s", i, code, body)
		}
	}
	st := srv.jrn.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("expected at least one snapshot, stats %+v", st)
	}
	srv = nil // crash

	re := newDurable(t, dir, Options{})
	defer re.Close()
	rh := re.Handler()
	if code, body := call(t, rh, "GET", "/v1/sessions/s1", nil); code != http.StatusOK || reply[SessionInfo](t, body).Version != 20 {
		t.Fatalf("recovered s1: %d %s", code, body)
	}
}

// TestRecoverySkippedRecordsReported: a mutate record journaled after its
// session's delete (a delete racing a mutate) is skipped by the replay,
// and /v1/stats says so instead of dropping it silently.
func TestRecoverySkippedRecordsReported(t *testing.T) {
	spec, err := json.Marshal(wordcountSpecText(t))
	if err != nil {
		t.Fatal(err)
	}
	records := []journal.Record{
		{Seq: 1, Payload: []byte(`{"kind":"create","session":"s1","name":"s1","create":{"spec":` + string(spec) + `}}`)},
		{Seq: 2, Payload: []byte(`{"kind":"delete","session":"s1"}`)},
		{Seq: 3, Payload: []byte(`{"kind":"mutate","session":"s1","ops":[{"op":"seal","stream":"tweets","key":["batch"]}]}`)},
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.log"), journal.EncodeRecords(records), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := newDurable(t, dir, Options{})
	defer srv.Close()
	if got, want := recoveryStats(t, srv.Handler()), (RecoveryStats{Records: 3, SkippedRecords: 1}); got != want {
		t.Errorf("recovery stats = %+v, want %+v", got, want)
	}
}

// TestOpenReturnsRecovered: the server Open returns has finished its boot
// replay. Right after Open, with nothing waited for, every session the
// journal holds answers at its acknowledged version, an evicted and an
// unrecoverable session answer 410 with their tombstones, and /v1/stats
// counts the sessions the replay rebuilt and the one it could not.
func TestOpenReturnsRecovered(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{MaxSessions: 3})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	rng := rand.New(rand.NewSource(11))
	acked := map[string]uint64{}
	for i := 1; i <= 4; i++ { // the fourth create evicts s1
		id := fmt.Sprintf("s%d", i)
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: id, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
		for k := 0; k < 6; k++ {
			code, body := call(t, h, "POST", "/v1/sessions/"+id+"/mutate", MutateRequest{Ops: []MutateOp{randomOp(rng)}})
			switch code {
			case http.StatusOK:
				acked[id] = reply[MutateResponse](t, body).Version
			case http.StatusBadRequest: // invalid in this state, not acknowledged
			default:
				t.Fatalf("mutate %s: %d %s", id, code, body)
			}
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	// s5's create names a retired strategy: the replay cannot rebuild it.
	quoted, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	jrn, _, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jrn.Append([]byte(`{"kind":"create","session":"s5","name":"s5","create":{"spec":` + string(quoted) + `,"strategy":"merge-rewrite"}}`)); err != nil {
		t.Fatal(err)
	}
	if err := jrn.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{JournalDir: dir, MaxSessions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	rh := re.Handler()
	for _, id := range []string{"s2", "s3", "s4"} {
		code, body := call(t, rh, "GET", "/v1/sessions/"+id, nil)
		if info := reply[SessionInfo](t, body); code != http.StatusOK || !info.Recovered || info.Version != acked[id] {
			t.Errorf("%s = %d %s, want 200, recovered, version %d", id, code, body, acked[id])
		}
	}
	for id, want := range map[string]Tombstone{
		"s1": {Session: "s1", Name: "s1", Version: acked["s1"], State: "evicted"},
		"s5": {Session: "s5", Name: "s5", State: "unrecoverable"},
	} {
		code, body := call(t, rh, "GET", "/v1/sessions/"+id, nil)
		if code != http.StatusGone || reply[GoneResponse](t, body).Tombstone != want {
			t.Errorf("%s = %d %s, want 410 with tombstone %+v", id, code, body, want)
		}
	}
	var st StatsResponse
	if code, body := call(t, rh, "GET", "/v1/stats", nil); code != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil {
		t.Fatalf("stats: %d %s", code, body)
	}
	if st.Sessions != 3 || st.RecoveredSessions != 3 || st.ReplayErrors != 1 || st.Evicted != 2 {
		t.Errorf("stats: %d sessions, %d recovered, %d replay errors, %d tombstones; want 3, 3, 1 and 2",
			st.Sessions, st.RecoveredSessions, st.ReplayErrors, st.Evicted)
	}
}

// TestBrokenJournalPoisonsWrites pins the poisoned read-only mode: after a
// failed append the server keeps serving reads but refuses new writes.
func TestBrokenJournalPoisonsWrites(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	srv.journalBroken.Store(true)
	if code, _ := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: spec}); code != http.StatusServiceUnavailable {
		t.Fatal("create should shed when the journal is broken")
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	if code, _ := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusServiceUnavailable {
		t.Fatal("mutate should shed when the journal is broken")
	}
	// Reads — including analysis, which mutates nothing durable — survive.
	if code, _ := call(t, h, "POST", "/v1/sessions/s1/analyze", nil); code != http.StatusOK {
		t.Fatal("analyze should keep working when the journal is broken")
	}
	if code, body := call(t, h, "GET", "/v1/stats", nil); code != http.StatusOK || !reply[StatsResponse](t, body).JournalBroken || reply[StatsResponse](t, body).Admission.ReadOnlyRejected != 2 {
		t.Fatalf("stats should report journal_broken and two writes shed: %d %s", code, body)
	}
}

// TestFailedAppendHidesUnjournaledWrite drives a journal failure through
// the real append: a batch applied in memory whose record cannot be
// written is not acknowledged, and nobody reads it either — that session
// answers 503 until a restart reverts it, other sessions keep serving.
func TestFailedAppendHidesUnjournaledWrite(t *testing.T) {
	dir := t.TempDir()
	srv := newDurable(t, dir, Options{})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	for _, name := range []string{"hit", "bystander"} {
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: name, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, code, body)
		}
	}
	_, before := call(t, h, "POST", "/v1/sessions/s1/analyze", nil)
	if err := srv.jrn.Close(); err != nil { // every Append now fails with ErrClosed
		t.Fatal(err)
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusInternalServerError {
		t.Fatalf("mutate over a closed journal: %d %s", code, body)
	}
	for _, r := range [][2]string{{"POST", "/v1/sessions/s1/analyze"}, {"GET", "/v1/sessions/s1"}, {"GET", "/v1/sessions/s1/lint"}} {
		if code, body := call(t, h, r[0], r[1], nil); code != http.StatusServiceUnavailable || !strings.Contains(body, "journal did not record") {
			t.Errorf("%s %s after the failed append: %d %s", r[0], r[1], code, body)
		}
	}
	if code, body := call(t, h, "POST", "/v1/sessions/s2/analyze", nil); code != http.StatusOK {
		t.Errorf("the bystander's analyze: %d %s", code, body)
	}

	re := newDurable(t, dir, Options{})
	defer re.Close()
	if code, after := call(t, re.Handler(), "POST", "/v1/sessions/s1/analyze", nil); code != http.StatusOK || after != before {
		t.Errorf("after a restart s1 answers %d, want the pre-mutation analysis:\n got: %s\nwant: %s", code, after, before)
	}
}

// TestRetiredSequencingFieldFailsOpen: a journal in the format the parent
// wrote, whose create record carries the retired "sequencing": true, is
// refused by name — seq and field — instead of replaying the session under
// the default chain; the same journal without that field replays.
func TestRetiredSequencingFieldFailsOpen(t *testing.T) {
	spec, err := json.Marshal(wordcountSpecText(t))
	if err != nil {
		t.Fatal(err)
	}
	create := func(seq uint64, id, extra string) journal.Record {
		return journal.Record{Seq: seq, Payload: []byte(`{"kind":"create","session":"` + id + `","name":"` + id + `","create":{"spec":` + string(spec) + extra + `}}`)}
	}
	writeWAL := func(dir string, records ...journal.Record) {
		if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.log"), journal.EncodeRecords(records), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	writeWAL(dir, create(1, "s1", ""), create(2, "s2", `,"sequencing":true`))
	if _, err := Open(Options{JournalDir: dir}); err == nil || !strings.Contains(err.Error(), "seq 2") || !strings.Contains(err.Error(), `unknown field "sequencing"`) {
		t.Fatalf("Open = %v, want an error naming seq 2 and the sequencing field", err)
	}

	dir = t.TempDir()
	writeWAL(dir, create(1, "s1", ""), create(2, "s2", `,"strategy":"sealing,sequencing"`))
	srv := newDurable(t, dir, Options{})
	defer srv.Close()
	for _, id := range []string{"s1", "s2"} {
		if code, body := call(t, srv.Handler(), "POST", "/v1/sessions/"+id+"/analyze", nil); code != http.StatusOK {
			t.Errorf("replayed %s: %d %s", id, code, body)
		}
	}
}

// TestRetiredMergeRewriteStrategyUnrecoverable: a journal whose create
// record names the retired "merge-rewrite" strategy never recovers that
// session under the default chain: the replay tombstones it as
// unrecoverable and counts one replay error, and the other session
// recovers. The session's acknowledged records survive the snapshots that
// follow, so every later boot tries it again and fails it again instead of
// finding its records compacted away. A client cannot delete it: it is no
// open session.
func TestRetiredMergeRewriteStrategyUnrecoverable(t *testing.T) {
	spec, err := json.Marshal(wordcountSpecText(t))
	if err != nil {
		t.Fatal(err)
	}
	create := func(seq uint64, id, extra string) journal.Record {
		return journal.Record{Seq: seq, Payload: []byte(`{"kind":"create","session":"` + id + `","name":"` + id + `","create":{"spec":` + string(spec) + extra + `}}`)}
	}
	dir := t.TempDir()
	records := []journal.Record{create(1, "s1", ""), create(2, "s2", `,"strategy":"merge-rewrite"`)}
	if err := os.WriteFile(filepath.Join(dir, "wal-00000000000000000001.log"), journal.EncodeRecords(records), 0o644); err != nil {
		t.Fatal(err)
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	for boot := 1; boot <= 3; boot++ {
		srv := newDurable(t, dir, Options{})
		srv.snapEvery = 4
		h := srv.Handler()
		if code, body := call(t, h, "POST", "/v1/sessions/s1/analyze", nil); code != http.StatusOK {
			t.Errorf("boot %d: replayed s1: %d %s", boot, code, body)
		}
		if code, body := call(t, h, "GET", "/v1/sessions/s2", nil); code != http.StatusGone || !strings.Contains(body, "unrecoverable") {
			t.Errorf("boot %d: s2 = %d %s, want 410 naming it unrecoverable", boot, code, body)
		}
		if code, body := call(t, h, "DELETE", "/v1/sessions/s2", nil); code != http.StatusNotFound {
			t.Errorf("boot %d: DELETE s2 = %d %s, want 404", boot, code, body)
		}
		var st StatsResponse
		if code, body := call(t, h, "GET", "/v1/stats", nil); code != http.StatusOK || json.Unmarshal([]byte(body), &st) != nil {
			t.Fatalf("boot %d: stats: %d %s", boot, code, body)
		}
		if st.ReplayErrors != 1 || st.RecoveredSessions != 1 {
			t.Errorf("boot %d: replay errors = %d, recovered = %d; want 1 and 1", boot, st.ReplayErrors, st.RecoveredSessions)
		}
		if boot > 1 && st.Recovery.SnapshotSeq == 0 {
			t.Errorf("boot %d recovered from no snapshot", boot)
		}
		// Write past the snapshot interval: the snapshot compacts away
		// every segment that held s2's create.
		before := srv.jrn.Stats().Snapshots
		for i := 0; i < 4; i++ {
			if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusOK {
				t.Fatalf("boot %d: mutate s1: %d %s", boot, code, body)
			}
		}
		if srv.jrn.Stats().Snapshots == before {
			t.Fatalf("boot %d: no snapshot after 4 records at snapEvery 4", boot)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecencySurvivesRestart: the LRU order a snapshot records is the order
// after the restart. s1 is read after s2 and s3 are created, s3 written, and
// a snapshot taken; after the restart a fourth session evicts s2, the least
// recently used, not s1, the lowest id. The same holds for a write the
// journal holds after its last snapshot: s1 written after s2 and s3 are
// created is, after the restart, more recent than s2.
func TestRecencySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	spec := wordcountSpecText(t)
	srv := newDurable(t, dir, Options{MaxSessions: 3})
	srv.snapEvery = 4
	h := srv.Handler()
	for _, id := range []string{"s1", "s2", "s3"} {
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: id, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	if code, body := call(t, h, "GET", "/v1/sessions/s1", nil); code != http.StatusOK {
		t.Fatalf("touch s1: %d %s", code, body)
	}
	seal := MutateOp{Op: "seal", Stream: "tweets", Key: []string{"batch"}}
	if code, body := call(t, h, "POST", "/v1/sessions/s3/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusOK {
		t.Fatalf("mutate s3: %d %s", code, body)
	}
	if st := srv.jrn.Stats(); st.SnapshotSeq != 4 {
		t.Fatalf("snapshot seq = %d, want 4 (stats %+v)", st.SnapshotSeq, st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	re := newDurable(t, dir, Options{MaxSessions: 3})
	defer re.Close()
	rh := re.Handler()
	if code, body := call(t, rh, "POST", "/v1/sessions", CreateRequest{Name: "s4", Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create s4: %d %s", code, body)
	}
	if code, body := call(t, rh, "GET", "/v1/sessions/s2", nil); code != http.StatusGone || !strings.Contains(body, "evicted") {
		t.Errorf("s2 = %d %s, want 410: it was the least recently used", code, body)
	}
	if code, body := call(t, rh, "GET", "/v1/sessions/s1", nil); code != http.StatusOK {
		t.Errorf("s1 = %d %s, want 200: it was read after s2", code, body)
	}

	// No snapshot: the write to s1 is a record of the journal's suffix.
	dir = t.TempDir()
	srv = newDurable(t, dir, Options{MaxSessions: 3})
	h = srv.Handler()
	for _, id := range []string{"s1", "s2", "s3"} {
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Name: id, Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, code, body)
		}
	}
	if code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{seal}}); code != http.StatusOK {
		t.Fatalf("mutate s1: %d %s", code, body)
	}
	if st := srv.jrn.Stats(); st.SnapshotSeq != 0 {
		t.Fatalf("snapshot seq = %d, want none (stats %+v)", st.SnapshotSeq, st)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := newDurable(t, dir, Options{MaxSessions: 3})
	defer re2.Close()
	rh = re2.Handler()
	if code, body := call(t, rh, "POST", "/v1/sessions", CreateRequest{Name: "s4", Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create s4 after the unsnapshotted write: %d %s", code, body)
	}
	if code, body := call(t, rh, "GET", "/v1/sessions/s2", nil); code != http.StatusGone || !strings.Contains(body, "evicted") {
		t.Errorf("s2 = %d %s, want 410: it was the least recently used", code, body)
	}
	if code, body := call(t, rh, "GET", "/v1/sessions/s1", nil); code != http.StatusOK {
		t.Errorf("s1 = %d %s, want 200: it was written after s2", code, body)
	}
}
