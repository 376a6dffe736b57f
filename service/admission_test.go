package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func mustAcquire(t *testing.T, g *gate) func() {
	t.Helper()
	release, err := g.acquire(nil)
	if err != nil {
		t.Fatal(err)
	}
	return release
}

func TestGateFastPathAndRelease(t *testing.T) {
	g := newGate(2, 4, time.Second)
	r1 := mustAcquire(t, g)
	r2 := mustAcquire(t, g)
	if got := g.stats(); got.InFlight != 2 || got.Admitted != 2 {
		t.Fatalf("stats = %+v", got)
	}
	r1()
	r2()
	if got := g.stats(); got.InFlight != 0 {
		t.Fatalf("in_flight = %d after release", got.InFlight)
	}
}

func TestGateShedsBeyondQueueBound(t *testing.T) {
	g := newGate(1, 1, time.Minute)
	release := mustAcquire(t, g)

	// One waiter fills the queue...
	admitted := make(chan func(), 1)
	go func() {
		r, err := g.acquire(nil)
		if err != nil {
			t.Error(err)
			return
		}
		admitted <- r
	}()
	waitFor(t, func() bool { return g.stats().QueueDepth == 1 })

	// ...so the next request sheds immediately.
	if _, err := g.acquire(nil); !errors.Is(err, errOverloaded) {
		t.Fatalf("want errOverloaded, got %v", err)
	}
	if got := g.stats(); got.Shed != 1 {
		t.Fatalf("shed = %d, want 1", got.Shed)
	}

	// Releasing the slot admits the waiter.
	release()
	select {
	case r := <-admitted:
		r()
	case <-time.After(5 * time.Second):
		t.Fatal("queued request never admitted")
	}
}

func TestGateQueueTimeout(t *testing.T) {
	g := newGate(1, 4, 10*time.Millisecond)
	release := mustAcquire(t, g)
	defer release()
	if _, err := g.acquire(nil); !errors.Is(err, errOverloaded) {
		t.Fatalf("want errOverloaded after queue timeout, got %v", err)
	}
	if got := g.stats(); got.QueueTimeouts != 1 || got.QueueDepth != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestGateDeadlineAwareShedding(t *testing.T) {
	g := newGate(1, 4, time.Minute)
	release := mustAcquire(t, g)
	defer release()
	done := make(chan struct{})
	close(done) // the caller is already gone
	if _, err := g.acquire(done); !errors.Is(err, errCanceled) {
		t.Fatalf("want errCanceled, got %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadSheds429 drives the HTTP surface: with the single slot held
// and the queue full, expensive endpoints answer 429 with a Retry-After
// hint, while cheap read endpoints keep answering 200.
func TestOverloadSheds429(t *testing.T) {
	srv := New(Options{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 2 * time.Second})
	h := srv.Handler()
	if code, body := call(t, h, "POST", "/v1/sessions", CreateRequest{Spec: wordcountSpecText(t)}); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, body)
	}

	release := mustAcquire(t, srv.gate)
	queued := make(chan func(), 1)
	go func() {
		r, err := srv.gate.acquire(nil)
		if err == nil {
			queued <- r
		}
	}()
	waitFor(t, func() bool { return srv.gate.stats().QueueDepth == 1 })

	req := httptest.NewRequest("POST", "/v1/sessions/s1/analyze", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("analyze under overload: %d %s", rec.Code, rec.Body.String())
	}
	if ra := rec.Header().Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	if !strings.Contains(rec.Body.String(), "overloaded") {
		t.Errorf("shed body should say overloaded: %s", rec.Body.String())
	}

	// Reads bypass the gate: the server stays observable under overload.
	if code, _ := call(t, h, "GET", "/v1/sessions/s1", nil); code != http.StatusOK {
		t.Error("get should bypass the gate")
	}
	if code, body := call(t, h, "GET", "/v1/stats", nil); code != http.StatusOK || reply[StatsResponse](t, body).Admission.Shed != 1 {
		t.Errorf("stats under overload: %d %s", code, body)
	}

	release()
	if r := <-queued; r != nil {
		r()
	}
}
