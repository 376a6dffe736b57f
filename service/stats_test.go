package service

import (
	"bytes"
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// latencies reads /v1/stats' latency section.
func latencies(t *testing.T, h http.Handler) map[string]LatencySummary {
	t.Helper()
	code, body := call(t, h, "GET", "/v1/stats", nil)
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st StatsResponse
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st.Latency
}

// TestLatencyCountsServedRequestsOnly: a 2xx reply adds exactly one sample
// to its endpoint's histogram; a shed, a cancel in the queue, a rejected
// batch, an unknown session and a 503 while recovering add none.
func TestLatencyCountsServedRequestsOnly(t *testing.T) {
	srv := New(Options{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Minute})
	h := srv.Handler()
	want := map[string]uint64{"create": 0, "mutate": 0, "analyze": 0, "verify": 0}
	step := func(name, method, path string, body any, code int, ctx context.Context) {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(method, path, bytes.NewReader(data)).WithContext(ctx)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != code {
			t.Fatalf("%s: %d %s, want %d", name, rec.Code, rec.Body.String(), code)
		}
		got := map[string]uint64{}
		for endpoint, s := range latencies(t, h) {
			got[endpoint] = s.Count
		}
		if !maps.Equal(got, want) {
			t.Fatalf("after %s: counts %v, want %v", name, got, want)
		}
	}
	bg := context.Background()

	for _, tc := range []struct {
		endpoint, path string
		body           any
		code           int
	}{
		{"create", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}, http.StatusCreated},
		{"mutate", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{{Op: "seal", Stream: "tweets", Key: []string{"batch"}}}}, http.StatusOK},
		{"analyze", "/v1/sessions/s1/analyze", AnalyzeRequest{}, http.StatusOK},
		{"verify", "/v1/verify", VerifyRequest{Workloads: []string{"synthetic-set"}, Seeds: 2}, http.StatusOK},
	} {
		want[tc.endpoint]++
		step(tc.endpoint+" 2xx", "POST", tc.path, tc.body, tc.code, bg)
	}

	step("400 mutate", "POST", "/v1/sessions/s1/mutate", MutateRequest{Ops: []MutateOp{{Op: "seal", Stream: "nope"}}}, http.StatusBadRequest, bg)
	step("404 analyze", "POST", "/v1/sessions/nope/analyze", AnalyzeRequest{}, http.StatusNotFound, bg)

	// The one slot is taken: a request whose context is already gone dies
	// in the queue (408); with the queue full too, the next one sheds (429).
	release := mustAcquire(t, srv.gate)
	canceled, cancel := context.WithCancel(bg)
	cancel()
	step("408 analyze", "POST", "/v1/sessions/s1/analyze", AnalyzeRequest{}, http.StatusRequestTimeout, canceled)
	queued := make(chan func(), 1)
	go func() {
		r, err := srv.gate.acquire(nil)
		if err != nil {
			t.Error(err)
		}
		queued <- r
	}()
	waitFor(t, func() bool { return srv.gate.stats().QueueDepth == 1 })
	step("429 analyze", "POST", "/v1/sessions/s1/analyze", AnalyzeRequest{}, http.StatusTooManyRequests, bg)
	release()
	if r := <-queued; r != nil {
		r()
	}

	srv.recovering.Store(true)
	step("503 create", "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}, http.StatusServiceUnavailable, bg)
	step("503 verify", "POST", "/v1/verify", VerifyRequest{Workloads: []string{"synthetic-set"}, Seeds: 2}, http.StatusServiceUnavailable, bg)
	srv.recovering.Store(false)
}

// TestLatencyIncludesQueueWait: a request's time starts at arrival, not at
// admission, so one held in the queue for 50 ms records at least 50 ms.
func TestLatencyIncludesQueueWait(t *testing.T) {
	srv := New(Options{MaxConcurrent: 1})
	h := srv.Handler()
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}
	release := mustAcquire(t, srv.gate)
	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions/s1/analyze", nil))
		done <- rec.Code
	}()
	waitFor(t, func() bool { return srv.gate.stats().QueueDepth == 1 })
	time.Sleep(50 * time.Millisecond)
	release()
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued analyze: %d", code)
	}
	if s := latencies(t, h)["analyze"]; s.Count != 1 || s.MaxUs < 50_000 {
		t.Fatalf("analyze latency %+v: want one sample of at least 50 ms", s)
	}
}
