package main

import (
	"bytes"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// buildTool compiles blazeslint once per test run and returns its path;
// the e2e tests run it in a module directory, as CI runs it.
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

// TestStandaloneFindings runs the driver over the fixture module (named
// blazes, so its internal/sim hits the deterministic scope): every seeded
// violation is reported, one per line, and the exit code is 1.
func TestStandaloneFindings(t *testing.T) {
	cmd := osexec.Command(tool(t), "./...")
	cmd.Dir = filepath.Join("testdata", "src")
	out, err := cmd.Output()
	if code := exitCode(err); code != exitError {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, exitError, out)
	}
	wants := []string{
		"time.Now reads the wall clock",
		"range over map lets iteration order escape",
		"maps.Keys lets iteration order escape",
	}
	for _, want := range wants {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if lines := strings.Count(string(out), "\n"); lines != len(wants) {
		t.Errorf("%d lines, want one per finding (%d):\n%s", lines, len(wants), out)
	}
}

// TestUnknownMarkerNames: a //lint:allow marker naming no registered check
// is reported where it stands, with a reason or without, and the
// misspelled maporder marker leaves the map range under it reported.
func TestUnknownMarkerNames(t *testing.T) {
	cmd := osexec.Command(tool(t), "./...")
	cmd.Dir = filepath.Join("testdata", "markers")
	out, err := cmd.Output()
	if code := exitCode(err); code != exitError {
		t.Fatalf("exit = %d, want %d; output:\n%s", code, exitError, out)
	}
	wants := []string{
		"sim.go:8:1: //lint:allow bogus names no check (valid: ctxflow, maporder, nondet) [bogus]",
		"sim.go:9:1: //lint:allow mapordr names no check (valid: ctxflow, maporder, nondet) [mapordr]",
		"sim.go:10:2: range over map lets iteration order escape",
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != len(wants) {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), len(wants), out)
	}
	for i, want := range wants {
		if !strings.Contains(lines[i], want) {
			t.Errorf("line %d = %q, want it to contain %q", i+1, lines[i], want)
		}
	}
}

// TestRepoClean is the whole-module gate CI enforces: every real violation
// in the deterministic packages is fixed or carries a reasoned suppression.
func TestRepoClean(t *testing.T) {
	cmd := osexec.Command(tool(t), "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("blazeslint over the module must pass: %v\n%s", err, out)
	}
}

// TestStandaloneUsage: the driver takes package patterns and no flags. What
// `go vet -vettool` would pass (a handshake flag, a unit's .cfg file) and
// the retired selection and output flags are usage errors.
func TestStandaloneUsage(t *testing.T) {
	cfg := filepath.Join(t.TempDir(), "vet.cfg")
	if err := os.WriteFile(cfg, []byte(`{"ImportPath":"blazes/internal/sim"}`), 0o666); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-V=full"},
		{"-flags"},
		{cfg},
		{"-checks", "maporder", "./..."},
		{"-json", "./..."},
	} {
		var out bytes.Buffer
		if code := run(args, &out, &out); code != exitUsage {
			t.Errorf("%v: exit = %d, want %d\n%s", args, code, exitUsage, out.String())
		}
	}
	var out bytes.Buffer
	run([]string{"-checks"}, &out, &out)
	for _, name := range []string{"ctxflow", "maporder", "nondet"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("usage should list analyzer %s:\n%s", name, out.String())
		}
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
