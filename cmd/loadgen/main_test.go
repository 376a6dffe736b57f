package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"blazes/service"
)

// TestRunLoadInProcess drives a small in-process burst end to end and
// checks the report: every request served, tallied and timed.
func TestRunLoadInProcess(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.json")
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-sessions", "12", "-rate", "600", "-mutations", "2", "-out", out,
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Totals.Requests != 48 || rep.Totals.ThroughputRPS == 0 || rep.Totals.Shed != 0 || rep.Totals.Errors != 0 {
		t.Errorf("totals of an unloaded server: %+v", rep.Totals)
	}
	want := map[string]map[int]int{"create": {201: 12}, "mutate": {200: 24}, "analyze": {200: 12}}
	if !reflect.DeepEqual(rep.Status, want) {
		t.Errorf("status = %v, want %v", rep.Status, want)
	}
	for ep, byCode := range want {
		for _, n := range byCode {
			if rep.Latency[ep].Count != uint64(n) {
				t.Errorf("latency[%s].count = %d, want %d", ep, rep.Latency[ep].Count, n)
			}
		}
	}
}

// TestRunLoadDurableInProcess exercises the in-process server with a
// journal attached; the report goes to stdout.
func TestRunLoadDurableInProcess(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-sessions", "6", "-rate", "600", "-mutations", "1", "-journal", t.TempDir(),
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	var rep Report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, stdout.String())
	}
	if rep.Latency["mutate"].Count != 6 || rep.Status["mutate"][200] != 6 {
		t.Errorf("journaled mutates: latency %+v, status %v", rep.Latency["mutate"], rep.Status["mutate"])
	}
}

// statusWriter remembers the status code a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// TestRunLoadOverload is the run loadgen is kept for: an open-loop burst
// into a server whose one admission slot is taken. The sheds must be
// reported as sheds — tallied by status, counted in totals.shed — and must
// not enter the latency summary, where replies that return in microseconds
// would read as a fast server. The report is decoded as the JSON a caller
// reads, not through the Report type.
func TestRunLoadOverload(t *testing.T) {
	svc := service.New(service.Options{MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: time.Millisecond})
	defer svc.Close()
	h := svc.Handler()

	// A create is admitted before its body is read, so one whose body
	// never ends holds the slot until the pipe closes.
	body, hold := io.Pipe()
	hog := make(chan struct{})
	go func() {
		defer close(hog)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("POST", "/v1/sessions", body))
	}()
	for {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
		var st service.StatsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.Admission.InFlight == 1 {
			break
		}
		select {
		case <-hog:
			t.Fatal("the create that should hold the slot returned")
		case <-time.After(time.Millisecond):
		}
	}

	// The burst's requests enter one at a time until the gate has shed
	// one; that reply frees the slot before the next request goes in, so
	// whatever the host's timing the run sees a shed and ends with
	// sessions alive. After that the gate is on its own.
	var mu sync.Mutex
	freed := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if freed {
			mu.Unlock()
			h.ServeHTTP(w, r)
			return
		}
		defer mu.Unlock()
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		if sw.code == http.StatusTooManyRequests {
			hold.Close()
			<-hog
			freed = true
		}
	}))
	defer srv.Close()

	var stdout, stderr bytes.Buffer
	code := run(context.Background(), []string{
		"-addr", srv.URL, "-sessions", "100", "-rate", "1000", "-mutations", "2",
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	var rep struct {
		Totals  struct{ Requests, Shed, Errors int }
		Latency map[string]struct{ Count int }
		Status  map[string]map[string]int
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("report does not parse: %v\n%s", err, stdout.String())
	}
	if rep.Totals.Shed == 0 || rep.Status["create"]["429"] == 0 {
		t.Errorf("sheds not reported: totals %+v, status %v", rep.Totals, rep.Status)
	}
	shed, replies := 0, 0
	for ep, byCode := range rep.Status {
		served := byCode["200"] + byCode["201"]
		shed += byCode["429"] + byCode["503"]
		for _, n := range byCode {
			replies += n
		}
		if rep.Latency[ep].Count != served {
			t.Errorf("latency[%s].count = %d, want the %d 2xx replies of %v", ep, rep.Latency[ep].Count, served, byCode)
		}
	}
	if shed != rep.Totals.Shed || replies != rep.Totals.Requests {
		t.Errorf("status tallies hold %d sheds of %d replies, totals %+v", shed, replies, rep.Totals)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-sessions", "0"},
		{"-rate", "0"},
		{"-chaos"},                          // needs -bin and -journal
		{"-chaos", "-bin", "/bin/false"},    // still needs -journal
		{"-chaos", "-journal", "/tmp/nope"}, // still needs -bin
		{"stray"},
	}
	for _, args := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args, &stdout, &stderr); code != exitUsage {
			t.Errorf("run(%v) = %d, want %d", args, code, exitUsage)
		}
	}
}
