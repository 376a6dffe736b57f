package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"blazes"
)

// send drives one request with a raw body, which call cannot: call
// marshals its body, and a second value or trailing junk does not marshal.
func send(h http.Handler, method, path string, body []byte) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.String()
}

// compactReply checks that body is one compact JSON value and a newline,
// and that it decodes strictly into T.
func compactReply[T any](t *testing.T, what string, code, wantCode int, body string) {
	t.Helper()
	if code != wantCode {
		t.Fatalf("%s: %d, want %d: %s", what, code, wantCode, body)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, []byte(body)); err != nil {
		t.Fatalf("%s: reply is not one JSON value: %v\n%s", what, err, body)
	}
	buf.WriteByte('\n')
	if buf.String() != body {
		t.Errorf("%s: reply is not compact plus one newline:\n got: %q\nwant: %q", what, body, buf.String())
	}
	reply[T](t, body)
}

// TestResponsesAreCompact: every reply the service writes — each route's,
// and the 400, 404, 405, 410, 413 and 503 errors, those of a path or a
// method no route is mounted for included — is one compact JSON value and a
// newline, and decodes strictly into its documented type.
func TestResponsesAreCompact(t *testing.T) {
	srv := newDurable(t, t.TempDir(), Options{MaxSessions: 1})
	defer srv.Close()
	h := srv.Handler()
	create := CreateRequest{Name: "wordcount", Spec: wordcountSpecText(t)}

	code, body := call(t, h, "POST", "/v1/sessions", create)
	compactReply[SessionInfo](t, "create", code, http.StatusCreated, body)
	code, body = call(t, h, "POST", "/v1/sessions", create) // evicts s1
	compactReply[SessionInfo](t, "create", code, http.StatusCreated, body)
	code, body = call(t, h, "GET", "/v1/sessions", nil)
	compactReply[ListResponse](t, "list", code, http.StatusOK, body)
	code, body = call(t, h, "GET", "/v1/sessions/s2", nil)
	compactReply[SessionInfo](t, "get", code, http.StatusOK, body)
	code, body = call(t, h, "POST", "/v1/sessions/s2/mutate", MutateRequest{Ops: []MutateOp{{Op: "seal", Stream: "tweets", Key: []string{"batch"}}}})
	compactReply[MutateResponse](t, "mutate", code, http.StatusOK, body)
	code, body = call(t, h, "POST", "/v1/sessions/s2/analyze", nil)
	compactReply[blazes.Report](t, "analyze", code, http.StatusOK, body)
	code, body = call(t, h, "POST", "/v1/sessions/s2/analyze", AnalyzeRequest{Synthesize: true})
	compactReply[blazes.Report](t, "synthesize", code, http.StatusOK, body)
	code, body = call(t, h, "GET", "/v1/sessions/s2/lint", nil)
	compactReply[LintResponse](t, "lint", code, http.StatusOK, body)
	code, body = call(t, h, "GET", "/v1/stats", nil)
	compactReply[StatsResponse](t, "stats", code, http.StatusOK, body)
	code, body = call(t, h, "GET", "/healthz", nil)
	compactReply[HealthResponse](t, "healthz", code, http.StatusOK, body)

	code, body = send(h, "POST", "/v1/sessions", []byte(`{"spec":`))
	compactReply[ErrorResponse](t, "400 body", code, http.StatusBadRequest, body)
	code, body = call(t, h, "POST", "/v1/sessions/s2/mutate", MutateRequest{Ops: []MutateOp{{Op: "seal", Stream: "tweets"}, {Op: "seal", Stream: "nope"}}})
	compactReply[ErrorResponse](t, "400 op", code, http.StatusBadRequest, body)
	code, body = call(t, h, "GET", "/v1/sessions/nope", nil)
	compactReply[ErrorResponse](t, "404", code, http.StatusNotFound, body)
	code, body = call(t, h, "GET", "/v1/sessions/s1", nil)
	compactReply[GoneResponse](t, "410", code, http.StatusGone, body)
	code, body = send(h, "POST", "/v1/sessions/s2/mutate", bytes.Repeat([]byte(" "), maxBodyBytes+1))
	compactReply[ErrorResponse](t, "413", code, http.StatusRequestEntityTooLarge, body)
	code, body = call(t, h, "POST", "/v1/verify", nil)
	compactReply[ErrorResponse](t, "404 unmounted path", code, http.StatusNotFound, body)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions/s2/mutate", nil))
	compactReply[ErrorResponse](t, "405 unmounted method", rec.Code, http.StatusMethodNotAllowed, rec.Body.String())
	if allow := rec.Header().Get("Allow"); allow != "POST" {
		t.Errorf("405 Allow = %q, want POST", allow)
	}

	code, body = call(t, h, "DELETE", "/v1/sessions/s2", nil)
	if code != http.StatusNoContent || body != "" {
		t.Errorf("delete: %d %q, want 204 and no body", code, body)
	}

	// A failed append (500) poisons the server read-only: the next write
	// is a 503, and reads keep answering.
	if err := srv.jrn.Close(); err != nil {
		t.Fatal(err)
	}
	code, body = call(t, h, "POST", "/v1/sessions", create)
	compactReply[ErrorResponse](t, "500", code, http.StatusInternalServerError, body)
	code, body = call(t, h, "POST", "/v1/sessions", create)
	compactReply[ErrorResponse](t, "503", code, http.StatusServiceUnavailable, body)
	code, body = call(t, h, "GET", "/v1/sessions", nil)
	compactReply[ListResponse](t, "list while read-only", code, http.StatusOK, body)
}

// TestRequestBodyIsOneValue: a body holding anything after its JSON value
// but whitespace — a second value, a stray bracket, a word — is refused
// with a 400 that names the first such byte and where it stands, and
// changes nothing: no session is created, no op applied, nothing analyzed.
// Whitespace after the value is accepted.
func TestRequestBodyIsOneValue(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	create, err := json.Marshal(CreateRequest{Name: "wordcount", Spec: wordcountSpecText(t)})
	if err != nil {
		t.Fatal(err)
	}
	if code, body := send(h, "POST", "/v1/sessions", create); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	seal := `{"ops":[{"op":"seal","stream":"tweets","key":["batch"]}]}`
	for _, tc := range []struct {
		name, path, body, named string
	}{
		{"create-second-value", "/v1/sessions", string(create) + ` {"junk":1} trailing`, fmt.Sprintf(`'{' at offset %d`, len(create)+1)},
		{"create-trailing-word", "/v1/sessions", string(create) + "\ntrailing", fmt.Sprintf(`'t' at offset %d`, len(create)+1)},
		{"mutate-second-value", "/v1/sessions/s1/mutate", seal + seal, fmt.Sprintf(`'{' at offset %d`, len(seal))},
		{"mutate-stray-bracket", "/v1/sessions/s1/mutate", seal + "]", fmt.Sprintf(`']' at offset %d`, len(seal))},
		{"analyze-trailing-word", "/v1/sessions/s1/analyze", `{"synthesize":true} x`, `'x' at offset 20`},
		{"analyze-second-value", "/v1/sessions/s1/analyze", `{}{}`, `'{' at offset 2`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := send(h, "POST", tc.path, []byte(tc.body))
			if code != http.StatusBadRequest {
				t.Fatalf("code = %d, want 400: %s", code, body)
			}
			if er := reply[ErrorResponse](t, body); !strings.Contains(er.Error, tc.named) || er.Applied != 0 {
				t.Errorf("error %+v does not name %s", er, tc.named)
			}
			e, _ := srv.lookup("s1")
			if n, v := srv.SessionCount(), e.sess.Version(); n != 1 || v != 0 {
				t.Errorf("a refused body changed the server: %d sessions, s1 at version %d", n, v)
			}
		})
	}

	// Whitespace after the value is not a second value. The session's first
	// analysis carries no delta: no refused analyze ran one before it.
	if code, body := send(h, "POST", "/v1/sessions/s1/analyze", []byte(" \n")); code != http.StatusOK || reply[blazes.Report](t, body).Delta != nil {
		t.Errorf("analyze with a whitespace body: %d %s", code, body)
	}
	if code, body := send(h, "POST", "/v1/sessions/s1/mutate", []byte(seal+"\n \t\r\n")); code != http.StatusOK || reply[MutateResponse](t, body).Version != 1 {
		t.Errorf("mutate with trailing whitespace: %d %s", code, body)
	}
	if code, body := send(h, "POST", "/v1/sessions", append(create, '\n')); code != http.StatusCreated || reply[SessionInfo](t, body).Session != "s2" {
		t.Errorf("create with a trailing newline: %d %s", code, body)
	}
}

// TestOversizedBodyIs413: a body past maxBodyBytes is answered 413 with the
// limit in the message — a value that is too large and whitespace after a
// small value alike — and changes nothing.
func TestOversizedBodyIs413(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	huge := strings.Repeat("a", 9<<20)
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"create", "/v1/sessions", []byte(`{"spec":"` + huge + `"}`)},
		{"mutate", "/v1/sessions/s1/mutate", []byte(`{"ops":[{"op":"seal","stream":"` + huge + `"}]}`)},
		{"analyze-trailing-whitespace", "/v1/sessions/s1/analyze", append([]byte(`{"synthesize":true}`), bytes.Repeat([]byte(" "), 9<<20)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, body := send(h, "POST", tc.path, tc.body)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("code = %d, want 413: %.200s", code, body)
			}
			if er := reply[ErrorResponse](t, body); !strings.Contains(er.Error, fmt.Sprint(maxBodyBytes)) {
				t.Errorf("413 does not name the %d-byte limit: %s", maxBodyBytes, er.Error)
			}
			e, _ := srv.lookup("s1")
			if n, v := srv.SessionCount(), e.sess.Version(); n != 1 || v != 0 {
				t.Errorf("an oversized body changed the server: %d sessions, s1 at version %d", n, v)
			}
		})
	}
}
