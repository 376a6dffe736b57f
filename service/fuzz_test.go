package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"blazes"
	"blazes/internal/journal"
)

// FuzzServiceRequests: any body sent to a session endpoint — create (0),
// mutate (1), analyze (2) or lint (3), by the first argument mod 4 — of a
// server holding one session — wordcount, or adreport under a variant when
// the first argument's bit 2 is set — draws no panic and no 5xx, and
// leaves that session analyzing byte for byte like a fresh
// CreateRequest.NewSession fed, through MutateOp.Apply, the ops the server
// acknowledged. A rejected mutate that applied nothing leaves Version where
// it was; a batch that fails part-way keeps the ops before the failure (each
// op is atomic), reports them in "applied", and they are replayed too. An
// analyze the server ran is run on the fresh session as well, so both
// report the same Delta next. No body decodeStrict refuses — a second value
// after the first one included — is answered 2xx.
//
// Then the server restarts from a snapshot, and the recovered session is
// held to the same oracle: it is at the replay's version and analyzes like a
// new replay of the acknowledged ops, and a mutate body sent again is
// answered as the replay answers it.
func FuzzServiceRequests(f *testing.F) {
	spec, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", "wordcount.blazes"))
	if err != nil {
		f.Fatal(err)
	}
	create := CreateRequest{Name: "wordcount", Spec: string(spec)}
	createBody, err := json.Marshal(create)
	if err != nil {
		f.Fatal(err)
	}
	adSpec, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", "adreport.blazes"))
	if err != nil {
		f.Fatal(err)
	}
	creates := []CreateRequest{create, {Name: "adreport", Spec: string(adSpec), Variants: map[string]string{"Report": "CAMPAIGN"}}}

	seeds := []string{
		// Every op kind of MutateOp's doc comment, and a batch failing at
		// its second op.
		`{"ops":[{"op":"seal","stream":"tweets","key":["batch"]}]}`,
		`{"ops":[{"op":"seal","stream":"tweets"}]}`,
		`{"ops":[{"op":"annotate","component":"Count","from":"words","to":"counts","label":"OW","subscript":["word","batch"]}]}`,
		`{"ops":[{"op":"variant","component":"Report","variant":"POOR"}]}`,
		`{"ops":[{"op":"connect","stream":"tap","from":"Count.counts","to":""}]}`,
		`{"ops":[{"op":"connect","stream":"tap","from":"Count.counts","to":""},{"op":"remove-edge","stream":"tap"}]}`,
		`{"ops":[{"op":"add-component","name":"Audit","paths":[{"from":"in","to":"out","label":"CW"}]}]}`,
		`{"ops":[{"op":"seal","stream":"tweets","key":["batch"]},{"op":"seal","stream":"nope"}]}`,
		// The other requests, well formed.
		string(createBody),
		`{"synthesize":true}`,
		``,
		// Malformed: an unknown field, wrong types, no ops, a truncated body.
		`{"ops":[{"op":"seal","stream":"tweets","sequencing":true}]}`,
		`{"spec":"x","sequencing":true}`,
		`{"ops":"seal"}`,
		`{"ops":[{"op":7,"key":"batch"}]}`,
		`{"synthesize":"yes","name":1}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"seal","stream":"twe`,
		// More than one value: a second one, a stray bracket, a word, and
		// whitespace, which is not a second value.
		string(createBody) + ` {"junk":1} trailing`,
		`{"ops":[{"op":"seal","stream":"tweets","key":["batch"]}]}{"ops":[{"op":"seal","stream":"tweets"}]}`,
		`{"ops":[{"op":"seal","stream":"tweets","key":["batch"]}]}]`,
		`{"synthesize":true} x`,
		"{\"ops\":[{\"op\":\"seal\",\"stream\":\"tweets\",\"key\":[\"batch\"]}]}\n \t",
	}
	for endpoint := range uint8(4) {
		for _, body := range seeds {
			f.Add(endpoint, []byte(body))
		}
	}
	// Mutates of an adreport session: variant ops and added components, the
	// ops a snapshot's op list must bring back after the restart.
	for _, body := range []string{
		`{"ops":[{"op":"variant","component":"Report","variant":"POOR"}]}`,
		`{"ops":[{"op":"variant","component":"Report","variant":""}]}`,
		`{"ops":[{"op":"remove-edge","stream":"q"},{"op":"variant","component":"Report","variant":""}]}`,
		`{"ops":[{"op":"variant","component":"Report","variant":"CAMPAIGN"},{"op":"annotate","component":"Report","from":"click","to":"response","label":"OR","subscript":["id"]}]}`,
		`{"ops":[{"op":"annotate","component":"Report","from":"request","to":"response","label":"CR"},{"op":"seal","stream":"clicks","key":["campaign"]}]}`,
		`{"ops":[{"op":"add-component","name":"Audit","paths":[{"from":"in","to":"out","label":"CW"}]},{"op":"variant","component":"Audit","variant":""}]}`,
		`{"ops":[{"op":"add-component","name":"Audit","paths":[{"from":"in","to":"out","label":"OW","subscript":["id"]}]},{"op":"connect","stream":"audit","from":"Cache.response","to":"Audit.in"}]}`,
	} {
		f.Add(uint8(5), []byte(body))
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
		create := creates[endpoint>>2&1]
		createBody, err := json.Marshal(create)
		if err != nil {
			t.Fatal(err)
		}
		srv := New(Options{})
		h := srv.Handler()
		serve := func(method, path string, body []byte) (int, []byte) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
			return rec.Code, rec.Body.Bytes()
		}
		if code, out := serve("POST", "/v1/sessions", createBody); code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, out)
		}
		e, _ := srv.lookup("s1")
		fresh, err := create.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var acked []MutateOp

		var code int
		var out []byte
		switch endpoint % 4 {
		case 0:
			code, out = serve("POST", "/v1/sessions", body)
			if code/100 == 2 {
				if err := decodeStrict(bytes.NewReader(body), new(CreateRequest)); err != nil {
					t.Fatalf("created a session from a body the decoder refuses (%v): %s", err, out)
				}
			}
		case 1:
			var ops []MutateOp
			code, out, ops = mutateAcked(t, serve, body, e, fresh)
			acked = append(acked, ops...)
		case 2:
			code, out = serve("POST", "/v1/sessions/s1/analyze", body)
			var req AnalyzeRequest
			if err := decodeStrict(bytes.NewReader(body), &req); err == nil || errors.Is(err, io.EOF) {
				if wantCode, want := analyzeReply(ctx, fresh, req.Synthesize); code != wantCode || !bytes.Equal(out, want) {
					t.Fatalf("analyze answered %d, a fresh session %d\n--- server ---\n%s\n--- fresh ---\n%s", code, wantCode, out, want)
				}
			} else if code/100 == 2 {
				t.Fatalf("analyzed a body the decoder refuses (%v): %s", err, out)
			}
		default:
			code, out = serve("GET", "/v1/sessions/s1/lint", body)
		}
		if code >= 500 {
			t.Fatalf("%d: %s", code, out)
		}

		code, got := serve("POST", "/v1/sessions/s1/analyze", nil)
		if wantCode, want := analyzeReply(ctx, fresh, false); code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("the session analyzes (%d) unlike a replay of its acknowledged ops (%d)\n--- server ---\n%s\n--- replay ---\n%s", code, wantCode, got, want)
		}

		// The restart leg, on a server rebuilt from a snapshot as Open
		// rebuilds one from a journal whose last record the snapshot covers.
		srv.snapMu.Lock()
		doc, err := srv.snapshotLocked()
		srv.snapMu.Unlock()
		if err != nil {
			t.Fatalf("snapshot: %v", err)
		}
		payload, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planRecovery(&journal.Recovered{Snapshot: payload, SnapshotSeq: 1})
		if err != nil {
			t.Fatal(err)
		}
		srv = New(Options{})
		srv.recoverSessions(plan)
		if srv.replayErrors != 0 {
			t.Fatalf("the snapshot's op list %+v does not replay", doc.Sessions[0].Ops)
		}
		h = srv.Handler()
		e, _ = srv.lookup("s1")
		replay, err := create.NewSession()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range acked {
			if err := op.Apply(replay); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := e.version(), replay.Version(); got != want {
			t.Fatalf("recovered at version %d, the replay of its %d acknowledged ops is at %d", got, len(acked), want)
		}
		code, got = serve("POST", "/v1/sessions/s1/analyze", nil)
		if wantCode, want := analyzeReply(ctx, replay, false); code != wantCode || !bytes.Equal(got, want) {
			t.Fatalf("the recovered session analyzes (%d) unlike a replay of its acknowledged ops (%d)\nop list %+v\n--- server ---\n%s\n--- replay ---\n%s", code, wantCode, doc.Sessions[0].Ops, got, want)
		}
		if endpoint%4 == 1 {
			mutateAcked(t, serve, body, e, replay)
			code, got = serve("POST", "/v1/sessions/s1/analyze", nil)
			if wantCode, want := analyzeReply(ctx, replay, false); code != wantCode || !bytes.Equal(got, want) {
				t.Fatalf("after the restart and a mutate the session analyzes (%d) unlike the replay (%d)\n--- server ---\n%s\n--- replay ---\n%s", code, wantCode, got, want)
			}
		}
	})
}

// mutateAcked sends body to session s1's mutate endpoint of the server that
// serve drives and replays on fresh the ops the reply acknowledged. It fails
// the test when the reply and e's session disagree with the replay: a 2xx
// for a body the decoder refuses, an "applied" no prefix of the batch has,
// a Version that moved with nothing applied, or one the replay is not at.
func mutateAcked(t *testing.T, serve func(method, path string, body []byte) (int, []byte), body []byte, e *entry, fresh *blazes.Session) (int, []byte, []MutateOp) {
	t.Helper()
	before := e.version()
	code, out := serve("POST", "/v1/sessions/s1/mutate", body)
	var req MutateRequest
	acked := 0
	if code/100 == 2 {
		if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
			t.Fatalf("acknowledged a body the decoder refuses (%v): %s", err, out)
		}
		acked = len(req.Ops)
	} else {
		var er ErrorResponse
		if err := json.Unmarshal(out, &er); err != nil {
			t.Fatalf("%d reply is no ErrorResponse: %s", code, out)
		}
		if acked = er.Applied; acked > 0 {
			if err := decodeStrict(bytes.NewReader(body), &req); err != nil || acked >= len(req.Ops) {
				t.Fatalf("%d reply claims %d ops applied: %s", code, acked, out)
			}
		} else if v := e.version(); v != before {
			t.Fatalf("%d mutate that applied nothing moved Version %d → %d: %s", code, before, v, out)
		}
	}
	for _, op := range req.Ops[:acked] {
		if err := op.Apply(fresh); err != nil {
			t.Fatalf("replaying acknowledged op %+v: %v", op, err)
		}
	}
	if got, want := e.version(), fresh.Version(); got != want {
		t.Fatalf("Version %d after a %d mutate, a replay of its %d acknowledged ops is at %d", got, code, acked, want)
	}
	return code, out, req.Ops[:acked]
}

// analyzeReply is what the analyze endpoint answers for sess.
func analyzeReply(ctx context.Context, sess *blazes.Session, synthesize bool) (int, []byte) {
	rec := httptest.NewRecorder()
	analyze := sess.Analyze
	if synthesize {
		analyze = sess.Synthesize
	}
	if rep, err := analyze(ctx); err != nil {
		writeError(rec, http.StatusUnprocessableEntity, "%v", err)
	} else {
		writeJSON(rec, http.StatusOK, rep)
	}
	return rec.Code, rec.Body.Bytes()
}
