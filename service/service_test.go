package service

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blazes"
)

var update = flag.Bool("update", false, "rewrite golden files")

func wordcountSpecText(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", "wordcount.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func adreportSpecText(t *testing.T) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "internal", "spec", "testdata", "adreport.blazes"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// call drives one request against the handler and returns status + body.
func call(t *testing.T, h http.Handler, method, path string, body any) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// reply decodes a reply body strictly — exactly one value, no field T lacks
// — into its documented type T.
func reply[T any](t *testing.T, body string) T {
	t.Helper()
	var v T
	if err := decodeStrict(strings.NewReader(body), &v); err != nil {
		t.Fatalf("reply is no %T: %v\n%s", v, err, body)
	}
	return v
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("response drifted from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

// TestGoldenRepairLoop drives the paper's repair loop over the wire and
// pins every request/response pair: create → analyze (Diverge) → seal →
// re-analyze (Delta says what the seal bought) → synthesize.
func TestGoldenRepairLoop(t *testing.T) {
	h := New(Options{}).Handler()

	code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{
		Name: "wordcount",
		Spec: wordcountSpecText(t),
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	checkGolden(t, "create_wordcount.json", body)

	code, body = call(t, h, "POST", "/v1/sessions/s1/analyze", nil)
	if code != http.StatusOK {
		t.Fatalf("analyze: %d %s", code, body)
	}
	checkGolden(t, "analyze_wordcount_unsealed.json", body)

	code, body = call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{
		Ops: []MutateOp{{Op: "seal", Stream: "tweets", Key: []string{"batch"}}},
	})
	if code != http.StatusOK {
		t.Fatalf("mutate: %d %s", code, body)
	}
	checkGolden(t, "mutate_seal_tweets.json", body)

	code, body = call(t, h, "POST", "/v1/sessions/s1/analyze", AnalyzeRequest{Synthesize: true})
	if code != http.StatusOK {
		t.Fatalf("re-analyze: %d %s", code, body)
	}
	checkGolden(t, "analyze_wordcount_sealed_delta.json", body)

	// The delta must show the repair: verdict Run → Async.
	rep, err := blazes.DecodeReport([]byte(body))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delta == nil || rep.Delta.Verdict == nil {
		t.Fatalf("sealed re-analysis carries no verdict delta: %s", body)
	}
	if rep.Delta.Verdict.Before.Kind != "Run" || rep.Delta.Verdict.After.Kind != "Async" {
		t.Errorf("verdict delta = %+v", rep.Delta.Verdict)
	}
	if len(rep.Strategies) == 0 {
		t.Error("synthesize=true returned no strategies")
	}
}

// TestSessionLifecycle: list, get, mutate with variants, delete, 404s.
func TestSessionLifecycle(t *testing.T) {
	h := New(Options{}).Handler()
	code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{
		Name:     "adreport",
		Spec:     adreportSpecText(t),
		Variants: map[string]string{"Report": "CAMPAIGN"},
		Seals:    map[string][]string{"clicks": {"campaign"}},
	})
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	code, body = call(t, h, "GET", "/v1/sessions", nil)
	if code != http.StatusOK {
		t.Fatalf("list: %d %s", code, body)
	}
	if list := reply[ListResponse](t, body); len(list.Sessions) != 1 || list.Sessions[0].Session != "s1" {
		t.Fatalf("list: %s", body)
	}
	code, body = call(t, h, "GET", "/v1/sessions/s1", nil)
	if code != http.StatusOK || !strings.Contains(body, `"Report"`) {
		t.Fatalf("get: %d %s", code, body)
	}

	// Re-select the variant over the wire and re-analyze.
	code, body = call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{
		Ops: []MutateOp{{Op: "variant", Component: "Report", Variant: "THRESH"}},
	})
	if code != http.StatusOK {
		t.Fatalf("variant mutate: %d %s", code, body)
	}
	code, body = call(t, h, "POST", "/v1/sessions/s1/analyze", nil)
	if code != http.StatusOK {
		t.Fatalf("analyze: %d %s", code, body)
	}

	code, _ = call(t, h, "DELETE", "/v1/sessions/s1", nil)
	if code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}
	code, _ = call(t, h, "DELETE", "/v1/sessions/s1", nil)
	if code != http.StatusNotFound {
		t.Fatalf("double delete: %d", code)
	}
	code, _ = call(t, h, "POST", "/v1/sessions/s1/analyze", nil)
	if code != http.StatusNotFound {
		t.Fatalf("analyze after delete: %d", code)
	}
}

// TestMutateBatchStopsAtFirstError: the response names the failing op and
// how many were applied; the session survives.
func TestMutateBatchStopsAtFirstError(t *testing.T) {
	h := New(Options{}).Handler()
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := call(t, h, "POST", "/v1/sessions/s1/mutate", MutateRequest{
		Ops: []MutateOp{
			{Op: "seal", Stream: "tweets", Key: []string{"batch"}},
			{Op: "seal", Stream: "nope", Key: []string{"x"}},
			{Op: "seal", Stream: "counts", Key: []string{"word"}},
		},
	})
	if code != http.StatusBadRequest {
		t.Fatalf("mutate: %d %s", code, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal([]byte(body), &er); err != nil {
		t.Fatal(err)
	}
	if er.Applied != 1 || !strings.Contains(er.Error, "op 1") || !strings.Contains(er.Error, "nope") {
		t.Errorf("error response: %+v", er)
	}
	if code, body := call(t, h, "POST", "/v1/sessions/s1/analyze", nil); code != http.StatusOK {
		t.Fatalf("session unusable after failed batch: %d %s", code, body)
	}
}

// unknownStrategy is the catalog's unknown-name error as a 400 body
// carries it (JSON-escaped): it lists the whole catalog, M1's `sequencing`
// included. retiredStrategy is the same error for merge-rewrite, which is
// a confluence annotation, not a strategy.
const (
	strategyCatalog = `(registered: [ordering partition-sealing quorum-ordering sealing sequencing])`
	unknownStrategy = `unknown strategy \"nope\" ` + strategyCatalog
	retiredStrategy = `unknown strategy \"merge-rewrite\" ` + strategyCatalog
)

// TestBadRequests pins the request-validation contract.
func TestBadRequests(t *testing.T) {
	h := New(Options{}).Handler()
	cases := []struct {
		name   string
		method string
		path   string
		body   any
		code   int
		err    string
	}{
		{"create-no-spec", "POST", "/v1/sessions", CreateRequest{}, http.StatusBadRequest, "spec is required"},
		{"create-bad-spec", "POST", "/v1/sessions", CreateRequest{Spec: "not: [valid"}, http.StatusBadRequest, "spec"},
		{"create-bad-variant", "POST", "/v1/sessions", CreateRequest{Spec: "A: {annotation: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.i}\n", Variants: map[string]string{"A": "X"}}, http.StatusBadRequest, "variant"},
		{"unknown-session", "POST", "/v1/sessions/nope/analyze", nil, http.StatusNotFound, "unknown session"},
		{"mutate-no-ops", "POST", "/v1/sessions/nope/mutate", MutateRequest{}, http.StatusNotFound, "unknown session"},
		{"create-unknown-strategy", "POST", "/v1/sessions", CreateRequest{Spec: "A: {annotation: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.i}\n", Strategy: "nope"}, http.StatusBadRequest, unknownStrategy},
		{"create-unknown-strategy-in-list", "POST", "/v1/sessions", CreateRequest{Spec: "A: {annotation: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.i}\n", Strategy: "sealing,nope"}, http.StatusBadRequest, unknownStrategy},
		{"create-retired-merge-rewrite", "POST", "/v1/sessions", CreateRequest{Spec: "A: {annotation: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.i}\n", Strategy: "merge-rewrite"}, http.StatusBadRequest, retiredStrategy},
		{"create-retired-sequencing", "POST", "/v1/sessions", json.RawMessage(`{"spec":"x","sequencing":true}`), http.StatusBadRequest, `unknown field \"sequencing\"`},
		// The sweep coordinator and the verify endpoint are retired: neither
		// route is mounted, so every body they once validated is now a 404
		// that names the route.
		{"sweep-unknown-strategy", "POST", "/v1/sweeps", json.RawMessage(`{"strategy":"nope"}`), http.StatusNotFound, "no route for POST /v1/sweeps"},
		{"sweep-retired-merge-rewrite", "POST", "/v1/sweeps", json.RawMessage(`{"strategy":"merge-rewrite"}`), http.StatusNotFound, "no route for POST /v1/sweeps"},
		{"sweep-retired-sequencing", "POST", "/v1/sweeps", json.RawMessage(`{"sequencing":true}`), http.StatusNotFound, "no route for POST /v1/sweeps"},
		{"verify-retired", "POST", "/v1/verify", json.RawMessage(`{"workloads":["synthetic-set"],"seeds":8}`), http.StatusNotFound, "no route for POST /v1/verify"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, body := call(t, h, tc.method, tc.path, tc.body)
			if code != tc.code {
				t.Errorf("code = %d, want %d (%s)", code, tc.code, body)
			}
			if !strings.Contains(body, tc.err) {
				t.Errorf("body %q missing %q", body, tc.err)
			}
			reply[ErrorResponse](t, body) // every refusal is an ErrorResponse
		})
	}
}

// TestLRUEviction: creating beyond the cap evicts the least recently used
// session.
func TestLRUEviction(t *testing.T) {
	srv := New(Options{MaxSessions: 2})
	h := srv.Handler()
	spec := wordcountSpecText(t)
	for i := 0; i < 2; i++ {
		if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: spec}); code != http.StatusCreated {
			t.Fatalf("create %d: %d %s", i, code, body)
		}
	}
	// Touch s1 so s2 is the eviction candidate.
	if code, _ := call(t, h, "GET", "/v1/sessions/s1", nil); code != http.StatusOK {
		t.Fatal("touch s1")
	}
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: spec}); code != http.StatusCreated {
		t.Fatalf("create s3: %d %s", code, body)
	}
	if srv.SessionCount() != 2 {
		t.Fatalf("sessions = %d, want 2", srv.SessionCount())
	}
	// Eviction is no longer silent: the id answers 410 Gone with a
	// tombstone, and the list response carries the eviction history.
	code, body := call(t, h, "GET", "/v1/sessions/s2", nil)
	if code != http.StatusGone {
		t.Errorf("s2 should have been evicted (code %d)", code)
	}
	if gone := reply[GoneResponse](t, body); gone.Tombstone.Session != "s2" || gone.Tombstone.State != "evicted" {
		t.Errorf("evicted get should carry a tombstone, got %s", body)
	}
	code, body = call(t, h, "GET", "/v1/sessions", nil)
	if list := reply[ListResponse](t, body); code != http.StatusOK || len(list.Evicted) != 1 || list.Evicted[0].Session != "s2" {
		t.Errorf("list should report evicted sessions: %d %s", code, body)
	}
	for _, id := range []string{"s1", "s3"} {
		if code, _ := call(t, h, "GET", "/v1/sessions/"+id, nil); code != http.StatusOK {
			t.Errorf("%s should have survived (code %d)", id, code)
		}
	}
}

// TestHealthz reports liveness and the session count.
func TestHealthz(t *testing.T) {
	srv := New(Options{})
	h := srv.Handler()
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	code, body := call(t, h, "GET", "/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	if health := reply[HealthResponse](t, body); !health.OK || health.Sessions != 1 {
		t.Errorf("healthz: %s", body)
	}
}

// TestConcurrentSessions hammers independent sessions from parallel
// goroutines; every analysis must match its own session's graph.
func TestConcurrentSessions(t *testing.T) {
	h := New(Options{}).Handler()
	spec := wordcountSpecText(t)
	const n = 8
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: spec})
		if code != http.StatusCreated {
			t.Fatalf("create: %d %s", code, body)
		}
		var si SessionInfo
		if err := json.Unmarshal([]byte(body), &si); err != nil {
			t.Fatal(err)
		}
		ids[i] = si.Session
	}
	t.Run("group", func(t *testing.T) {
		for i := 0; i < n; i++ {
			id := ids[i]
			sealed := i%2 == 0
			t.Run(fmt.Sprintf("worker-%d", i), func(t *testing.T) {
				t.Parallel()
				for round := 0; round < 5; round++ {
					if sealed {
						if code, body := call(t, h, "POST", "/v1/sessions/"+id+"/mutate", MutateRequest{
							Ops: []MutateOp{{Op: "seal", Stream: "tweets", Key: []string{"batch"}}},
						}); code != http.StatusOK {
							t.Fatalf("mutate: %d %s", code, body)
						}
					}
					code, body := call(t, h, "POST", "/v1/sessions/"+id+"/analyze", nil)
					if code != http.StatusOK {
						t.Fatalf("analyze: %d %s", code, body)
					}
					rep, err := blazes.DecodeReport([]byte(body))
					if err != nil {
						t.Fatal(err)
					}
					if want := map[bool]string{true: "Async", false: "Run"}[sealed]; rep.Verdict.Kind != want {
						t.Fatalf("round %d: verdict %s, want %s", round, rep.Verdict.Kind, want)
					}
				}
			})
		}
	})
}
