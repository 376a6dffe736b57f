package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"blazes"
	"blazes/service"
)

// TestServeLifecycle boots the server on a free port, drives a
// create → mutate → analyze round trip over a real socket, cancels the
// context (the in-process stand-in for SIGINT/SIGTERM) and requires a
// clean exit with the documented shutdown message.
func TestServeLifecycle(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var out syncBuffer
	done := make(chan int, 1)
	go func() {
		var errb bytes.Buffer
		done <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-max-sessions", "4"}, &out, &errb)
	}()

	base := waitForAddr(t, &out)
	// Round trip: create a session, seal, analyze.
	spec := "Count:\n  annotation: {from: words, to: counts, label: OW, subscript: [word, batch]}\ntopology:\n  sources:\n    - {name: words, to: Count.words}\n  sinks:\n    - {name: counts, from: Count.counts}\n"
	resp := post(t, base+"/v1/sessions", `{"name":"wc","spec":`+jsonString(spec)+`}`)
	if info, ok := decodeAs[service.SessionInfo](resp); !ok || info.Session != "s1" {
		t.Fatalf("create response: %s", resp)
	}
	resp = post(t, base+"/v1/sessions/s1/mutate", `{"ops":[{"op":"seal","stream":"words","key":["batch"]}]}`)
	if ack, ok := decodeAs[service.MutateResponse](resp); !ok || ack.Applied != 1 {
		t.Fatalf("mutate response: %s", resp)
	}
	resp = post(t, base+"/v1/sessions/s1/analyze", "")
	if rep, ok := decodeAs[blazes.Report](resp); !ok || rep.Version != "blazes.report/v2" {
		t.Fatalf("analyze response: %s", resp)
	}

	cancel()
	select {
	case code := <-done:
		if code != exitOK {
			t.Fatalf("exit = %d, want %d", code, exitOK)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "shut down cleanly") {
		t.Errorf("missing clean-shutdown message in: %s", out.String())
	}
}

// TestServeExitCodes pins the serve flag contract.
func TestServeExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		err  string
	}{
		{"help", []string{"serve", "-h"}, exitOK, "usage: blazes serve"},
		{"bad-flag", []string{"serve", "-nope"}, exitUsage, ""},
		{"stray-args", []string{"serve", "extra"}, exitUsage, "unexpected arguments"},
		{"bad-max-sessions", []string{"serve", "-max-sessions", "0"}, exitUsage, "-max-sessions must be positive"},
		{"bad-addr", []string{"serve", "-addr", "256.256.256.256:0"}, exitError, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, stderr := exec(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if tc.err != "" && !strings.Contains(stderr, tc.err) {
				t.Errorf("stderr %q missing %q", stderr, tc.err)
			}
		})
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for capturing server output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRe = regexp.MustCompile(`serving on (http://[^\s]+)`)

// waitForAddr polls the server's stdout for the announced listen address.
func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRe.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("server never announced its address; output: %q", out.String())
	return ""
}

func post(t *testing.T, url, body string) string {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	resp, err := http.Post(url, "application/json", rd)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// jsonString quotes s as a JSON string literal.
func jsonString(s string) string {
	var b bytes.Buffer
	b.WriteByte('"')
	for _, r := range s {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// decodeAs decodes a reply body strictly — exactly one value, no field T
// lacks — and reports whether it could.
func decodeAs[T any](body string) (v T, ok bool) {
	dec := json.NewDecoder(strings.NewReader(body))
	dec.DisallowUnknownFields()
	if dec.Decode(&v) != nil {
		return v, false
	}
	_, err := dec.Token()
	return v, err == io.EOF
}

// get fetches url and returns the body.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestServeDurableRestart boots a journaled server, writes a session,
// shuts down, boots a second server on the same journal and requires the
// session back — with the recovery surfaced in /v1/stats.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	spec := "Count:\n  annotation: {from: words, to: counts, label: OW, subscript: [word, batch]}\ntopology:\n  sources:\n    - {name: words, to: Count.words}\n  sinks:\n    - {name: counts, from: Count.counts}\n"

	boot := func() (base string, stop func() int) {
		ctx, cancel := context.WithCancel(context.Background())
		var out syncBuffer
		done := make(chan int, 1)
		go func() {
			var errb bytes.Buffer
			done <- runServe(ctx, []string{"-addr", "127.0.0.1:0", "-journal", dir}, &out, &errb)
		}()
		base = waitForAddr(t, &out)
		return base, func() int {
			cancel()
			select {
			case code := <-done:
				return code
			case <-time.After(10 * time.Second):
				t.Fatal("server did not shut down")
				return -1
			}
		}
	}

	base, stop := boot()
	// The boot replay (empty journal) finishes quickly; poll until writes
	// are admitted.
	deadline := time.Now().Add(10 * time.Second)
	var resp string
	for time.Now().Before(deadline) {
		resp = post(t, base+"/v1/sessions", `{"name":"wc","spec":`+jsonString(spec)+`}`)
		if info, ok := decodeAs[service.SessionInfo](resp); ok && info.Session == "s1" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info, ok := decodeAs[service.SessionInfo](resp); !ok || info.Session != "s1" {
		t.Fatalf("create never succeeded: %s", resp)
	}
	resp = post(t, base+"/v1/sessions/s1/mutate", `{"ops":[{"op":"seal","stream":"words","key":["batch"]}]}`)
	if ack, ok := decodeAs[service.MutateResponse](resp); !ok || !ack.Durable {
		t.Fatalf("mutate on a journaled server should acknowledge durability: %s", resp)
	}
	if code := stop(); code != exitOK {
		t.Fatalf("first shutdown exit = %d", code)
	}

	base, stop = boot()
	defer stop()
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp = get(t, base+"/v1/sessions/s1")
		if info, ok := decodeAs[service.SessionInfo](resp); ok && info.Recovered {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info, ok := decodeAs[service.SessionInfo](resp); !ok || !info.Recovered || info.Version != 1 {
		t.Fatalf("session not recovered after restart: %s", resp)
	}
	stats := get(t, base+"/v1/stats")
	if st, ok := decodeAs[service.StatsResponse](stats); !ok || !st.Durable || st.RecoveredSessions != 1 || st.Journal == nil {
		t.Errorf("stats should report a durable server, one recovered session and a journal section: %s", stats)
	}
}
