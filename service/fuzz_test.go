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
)

// FuzzServiceRequests: any body sent to a session endpoint — create (0),
// mutate (1), analyze (2) or lint (3), by the first argument mod 4 — of a
// server holding one wordcount session draws no panic and no 5xx, and
// leaves that session analyzing byte for byte like a fresh
// CreateRequest.NewSession fed, through MutateOp.Apply, the ops the server
// acknowledged. A rejected mutate that applied nothing leaves Version where
// it was; a batch that fails part-way keeps the ops before the failure (each
// op is atomic), reports them in "applied", and they are replayed too. An
// analyze the server ran is run on the fresh session as well, so both
// report the same Delta next. Verify stays out: each input would run a
// whole sweep.
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
	}
	for endpoint := range uint8(4) {
		for _, body := range seeds {
			f.Add(endpoint, []byte(body))
		}
	}

	f.Fuzz(func(t *testing.T, endpoint uint8, body []byte) {
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
		before := e.sess.Version()

		var code int
		var out []byte
		switch endpoint % 4 {
		case 0:
			code, out = serve("POST", "/v1/sessions", body)
		case 1:
			code, out = serve("POST", "/v1/sessions/s1/mutate", body)
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
				} else if v := e.sess.Version(); v != before {
					t.Fatalf("%d mutate that applied nothing moved Version %d → %d: %s", code, before, v, out)
				}
			}
			for _, op := range req.Ops[:acked] {
				if err := op.Apply(fresh); err != nil {
					t.Fatalf("replaying acknowledged op %+v: %v", op, err)
				}
			}
			if got, want := e.sess.Version(), fresh.Version(); got != want {
				t.Fatalf("Version %d after a %d mutate, a replay of its %d acknowledged ops is at %d", got, code, acked, want)
			}
		case 2:
			code, out = serve("POST", "/v1/sessions/s1/analyze", body)
			var req AnalyzeRequest
			if err := decodeStrict(bytes.NewReader(body), &req); err == nil || errors.Is(err, io.EOF) {
				if wantCode, want := analyzeReply(ctx, fresh, req.Synthesize); code != wantCode || !bytes.Equal(out, want) {
					t.Fatalf("analyze answered %d, a fresh session %d\n--- server ---\n%s\n--- fresh ---\n%s", code, wantCode, out, want)
				}
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
	})
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
