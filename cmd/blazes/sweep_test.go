package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blazes/verify"
)

// TestGoldenShrinkTrace pins the shrink pipeline end to end: `blazes
// verify -shrink` on the order-sensitive synthetic workload writes
// 1-minimal replayable trace artifacts with deterministic bytes, and
// `blazes verify -replay` reproduces each one with exit 0.
func TestGoldenShrinkTrace(t *testing.T) {
	dir := t.TempDir()
	code, stdout, stderr := exec(t, "verify", "-workload", "synthetic-chains", "-seeds", "8", "-shrink", dir)
	if code != exitOK {
		t.Fatalf("verify -shrink: code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("no trace artifacts written (err=%v); stderr: %s", err, stderr)
	}

	// The stripped reorder cell reliably diverges; its artifact is the
	// golden.
	goldenSrc := filepath.Join(dir, "synthetic-chains-none-reorder.json")
	data, err := os.ReadFile(goldenSrc)
	if err != nil {
		t.Fatalf("expected artifact missing: %v (have %v)", err, entries)
	}
	checkGolden(t, "trace_chains_none_reorder.json", string(data))

	for _, path := range entries {
		code, stdout, stderr := exec(t, "verify", "-replay", path)
		if code != exitOK {
			t.Errorf("replay %s: code = %d\nstdout: %s\nstderr: %s", path, code, stdout, stderr)
		}
		if !strings.Contains(stdout, "reproduced") {
			t.Errorf("replay %s: missing verdict in output: %s", path, stdout)
		}
	}
}

// TestReshrinkCorpus: `blazes verify -reshrink` re-minimizes an existing
// trace corpus in place without re-running the sweep — already-minimal
// traces come back unchanged (ddmin is deterministic and idempotent), the
// rewritten files still replay, and a stale trace whose recorded
// classification no longer reproduces fails the command while the other
// files are still processed.
func TestReshrinkCorpus(t *testing.T) {
	dir := t.TempDir()
	code, _, stderr := exec(t, "verify", "-workload", "synthetic-chains", "-seeds", "8", "-shrink", dir)
	if code != exitOK {
		t.Fatalf("shrink setup failed: %d %s", code, stderr)
	}
	traces, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(traces) == 0 {
		t.Fatal("no traces to reshrink")
	}
	before := map[string]*verify.Trace{}
	for _, path := range traces {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := verify.DecodeTrace(data)
		if err != nil {
			t.Fatal(err)
		}
		before[path] = tr
	}

	code, stdout, stderr := exec(t, "verify", "-reshrink", dir)
	if code != exitOK {
		t.Fatalf("verify -reshrink: code = %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	for _, path := range traces {
		if !strings.Contains(stdout, path) {
			t.Errorf("reshrink output does not mention %s:\n%s", path, stdout)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := verify.DecodeTrace(data)
		if err != nil {
			t.Fatalf("reshrunk %s no longer decodes: %v", path, err)
		}
		if len(tr.Events) != len(before[path].Events) || len(tr.Seeds) != len(before[path].Seeds) {
			t.Errorf("%s: reshrinking a 1-minimal trace changed it: %d events/%d seeds → %d/%d",
				path, len(before[path].Events), len(before[path].Seeds), len(tr.Events), len(tr.Seeds))
		}
		if tr.Anomalies != before[path].Anomalies {
			t.Errorf("%s: reshrink changed the recorded classification", path)
		}
		if code, _, rerr := exec(t, "verify", "-replay", path); code != exitOK {
			t.Errorf("replay after reshrink %s: code = %d, stderr: %s", path, code, rerr)
		}
	}

	// A stale trace (recorded anomalies no longer reproduce) fails the run
	// but is left untouched.
	stale := *before[traces[0]]
	stale.Anomalies = verify.Anomalies{}
	staleBytes, err := stale.Encode()
	if err != nil {
		t.Fatal(err)
	}
	stalePath := filepath.Join(dir, "stale-trace.json")
	if err := os.WriteFile(stalePath, staleBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr = exec(t, "verify", "-reshrink", dir)
	if code != exitError {
		t.Fatalf("reshrink with a stale trace: code = %d, want %d", code, exitError)
	}
	if !strings.Contains(stderr, "no longer reproduce") {
		t.Errorf("stderr does not explain the stale trace: %s", stderr)
	}
	after, err := os.ReadFile(stalePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, staleBytes) {
		t.Error("stale trace was rewritten; it should be left untouched")
	}

	// An empty directory is an error, not a silent success.
	if code, _, _ := exec(t, "verify", "-reshrink", t.TempDir()); code != exitError {
		t.Errorf("reshrink of an empty dir: code = %d, want %d", code, exitError)
	}
}

// TestReplayExitCodes pins the -replay / flag-validation exit-code matrix.
func TestReplayExitCodes(t *testing.T) {
	dir := t.TempDir()

	// A real trace to tamper with.
	code, _, stderr := exec(t, "verify", "-workload", "synthetic-chains", "-seeds", "6", "-shrink", dir)
	if code != exitOK {
		t.Fatalf("shrink setup failed: %d %s", code, stderr)
	}
	traces, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(traces) == 0 {
		t.Fatal("no traces to tamper with")
	}
	data, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	tr, err := verify.DecodeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	tr.Anomalies = verify.Anomalies{} // recorded classification no longer matches
	tampered, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	tamperedPath := filepath.Join(dir, "tampered.trace")
	if err := os.WriteFile(tamperedPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	junkPath := filepath.Join(dir, "junk.trace")
	if err := os.WriteFile(junkPath, []byte(`{"version":"nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"tampered trace does not reproduce", []string{"verify", "-replay", tamperedPath}, exitError},
		{"junk artifact", []string{"verify", "-replay", junkPath}, exitError},
		{"missing file", []string{"verify", "-replay", filepath.Join(dir, "absent.json")}, exitError},
		{"replay combined with sweep flags", []string{"verify", "-replay", tamperedPath, "-shrink", dir}, exitUsage},
		{"unknown workload", []string{"verify", "-workload", "no-such"}, exitUsage},
		{"bad seeds", []string{"verify", "-seeds", "0"}, exitUsage},
	} {
		if code, stdout, stderr := exec(t, tc.args...); code != tc.code {
			t.Errorf("%s: code = %d, want %d\nstdout: %s\nstderr: %s", tc.name, code, tc.code, stdout, stderr)
		}
	}
}
