package main

import (
	"bytes"
	"encoding/json"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTool compiles blazeslint once per test run and returns its path;
// the e2e tests hand it to `go vet -vettool` exactly as CI does.
var buildTool = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "blazeslint-test")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "blazeslint")
	cmd := osexec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &buildError{string(out), err}
	}
	return bin, nil
})

type buildError struct {
	out string
	err error
}

func (e *buildError) Error() string { return e.err.Error() + "\n" + e.out }

func tool(t *testing.T) string {
	t.Helper()
	bin, err := buildTool()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestVetToolFindings drives the full unitchecker protocol against the
// fixture module (named blazes, so its internal/sim hits the deterministic
// scope): -V=full handshake, -flags, per-unit .cfg runs, diagnostics on
// stderr, non-zero exit.
func TestVetToolFindings(t *testing.T) {
	cmd := osexec.Command("go", "vet", "-vettool="+tool(t), "./...")
	cmd.Dir = filepath.Join("testdata", "src")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet over the seeded fixture should fail, output:\n%s", out)
	}
	for _, want := range []string{
		"time.Now reads the wall clock",
		"range over map lets iteration order escape",
		"maps.Keys lets iteration order escape",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("go vet output missing %q:\n%s", want, out)
		}
	}
}

// TestVetToolRepoClean is the whole-repo gate CI enforces: every real
// violation in the deterministic packages is fixed or carries a reasoned
// suppression, so the vettool passes the codebase.
func TestVetToolRepoClean(t *testing.T) {
	cmd := osexec.Command("go", "vet", "-vettool="+tool(t), "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -vettool over the repo must pass: %v\n%s", err, out)
	}
}

func TestStandaloneFindings(t *testing.T) {
	cmd := osexec.Command(tool(t), "./...")
	cmd.Dir = filepath.Join("testdata", "src")
	out, err := cmd.Output()
	if code := exitCode(err); code != exitError {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, exitError, out)
	}
	if !strings.Contains(string(out), "time.Now reads the wall clock") {
		t.Errorf("standalone output missing the nondet finding:\n%s", out)
	}

	// -checks narrows the run to one analyzer.
	cmd = osexec.Command(tool(t), "-checks", "maporder", "./...")
	cmd.Dir = filepath.Join("testdata", "src")
	out, err = cmd.Output()
	if code := exitCode(err); code != exitError {
		t.Fatalf("exit = %d, want %d", code, exitError)
	}
	if strings.Contains(string(out), "time.Now") {
		t.Errorf("-checks maporder still ran nondet:\n%s", out)
	}

	// -json emits a machine-readable array with positions and check names.
	cmd = osexec.Command(tool(t), "-json", "./...")
	cmd.Dir = filepath.Join("testdata", "src")
	out, _ = cmd.Output()
	var diags []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Check   string `json:"check"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal(out, &diags); err != nil {
		t.Fatalf("-json output invalid: %v\n%s", err, out)
	}
	checks := map[string]bool{}
	for _, d := range diags {
		if d.File == "" || d.Line == 0 {
			t.Errorf("diagnostic missing position: %+v", d)
		}
		checks[d.Check] = true
	}
	if !checks["nondet"] || !checks["maporder"] {
		t.Errorf("JSON findings should cover both analyzers, got %v", checks)
	}
}

func TestHandshake(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-V=full"}, &out, &out); code != exitOK {
		t.Fatalf("-V=full exit = %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "buildID=") {
		t.Errorf("-V=full output %q lacks the buildID the go command caches on", out.String())
	}
	out.Reset()
	if code := run([]string{"-flags"}, &out, &out); code != exitOK {
		t.Fatalf("-flags exit = %d", code)
	}
	var defs []map[string]any
	if err := json.Unmarshal(out.Bytes(), &defs); err != nil {
		t.Errorf("-flags output is not the JSON array cmd/go parses: %v\n%s", err, out.String())
	}
}

func TestStandaloneUsage(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-checks", "bogus", "./..."}, &out, &out); code != exitUsage {
		t.Errorf("unknown check: exit = %d, want %d", code, exitUsage)
	}
	if !strings.Contains(out.String(), "maporder") {
		t.Errorf("usage should list the valid analyzers:\n%s", out.String())
	}
}

func exitCode(err error) int {
	if err == nil {
		return 0
	}
	if ee, ok := err.(*osexec.ExitError); ok {
		return ee.ExitCode()
	}
	return -1
}
