package main

import (
	"encoding/json"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The lint subcommand is driven in-process like the analysis flow. The
// seeded-defect corpus under testdata/lint has one spec per BLZ code, so
// the goldens pin both the catalog's coverage and the rendered form.
// Regenerate with:
//
//	go test ./cmd/blazes -run TestLint -update

// corpusSpecs returns the seeded-defect specs in name order (the order the
// command receives them, hence the order of the report).
func corpusSpecs(t *testing.T) []string {
	t.Helper()
	specs, err := filepath.Glob(filepath.Join("testdata", "lint", "*.blazes"))
	if err != nil || len(specs) == 0 {
		t.Fatalf("no corpus specs: %v", err)
	}
	sort.Strings(specs)
	return specs
}

func TestLintCorpusText(t *testing.T) {
	args := append([]string{"lint"}, corpusSpecs(t)...)
	code, stdout, stderr := exec(t, args...)
	if code != exitError || stderr != "" {
		t.Fatalf("code = %d (want %d: corpus has error-severity seeds), stderr = %q", code, exitError, stderr)
	}
	checkGolden(t, filepath.Join("lint", "corpus.txt"), stdout)

	// Every documented code appears against its seed exactly once.
	for _, want := range []string{"BLZ001", "BLZ002", "BLZ003", "BLZ004", "BLZ005", "BLZ006"} {
		if n := strings.Count(stdout, want); n != 1 {
			t.Errorf("corpus output mentions %s %d times, want 1:\n%s", want, n, stdout)
		}
	}
}

func TestLintCorpusJSON(t *testing.T) {
	args := append([]string{"lint", "-json"}, corpusSpecs(t)...)
	code, stdout, stderr := exec(t, args...)
	if code != exitError || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, filepath.Join("lint", "corpus.json"), stdout)

	var report []struct {
		Spec        string `json:"spec"`
		Diagnostics []struct {
			Code     string `json:"code"`
			Severity string `json:"severity"`
			Subject  string `json:"subject"`
			Message  string `json:"message"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal([]byte(stdout), &report); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(report) != len(corpusSpecs(t)) {
		t.Fatalf("report covers %d specs, want %d", len(report), len(corpusSpecs(t)))
	}
	for _, r := range report {
		if len(r.Diagnostics) == 0 {
			t.Errorf("%s: seeded defect produced no diagnostics", r.Spec)
		}
	}
}

// TestLintCleanSpecs pins that the checked-in analysis specs lint clean.
// adreport's Cache and Report wire into each other but form no cycle
// (footnote 3: Cache has no path from its response input to its request
// output), and Cache's gossip self-cycle is confluent, so it draws no
// BLZ006.
func TestLintCleanSpecs(t *testing.T) {
	code, stdout, stderr := exec(t, "lint", wordcountSpec, adreportSpec)
	if code != exitOK || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, filepath.Join("lint", "clean.txt"), stdout)
	if !strings.Contains(stdout, "wordcount.blazes: ok") {
		t.Errorf("wordcount should be clean:\n%s", stdout)
	}
}

// TestLintVariantSweep pins the default sweep: adreport's Report component
// has only variant annotations, so linting with no -variant flag must
// still build (first variant pinned, one component varied at a time)
// instead of failing on the variantless graph.
func TestLintVariantSweep(t *testing.T) {
	code, _, stderr := exec(t, "lint", adreportSpec)
	if code != exitOK {
		t.Fatalf("variantless lint of adreport: code = %d, stderr = %q", code, stderr)
	}
	// An explicit selection narrows the sweep but must agree on the verdict.
	code, _, stderr = exec(t, "lint", "-variant", "Report=CAMPAIGN", adreportSpec)
	if code != exitOK {
		t.Fatalf("explicit-variant lint: code = %d, stderr = %q", code, stderr)
	}
}

func TestLintUsageErrors(t *testing.T) {
	if code, _, _ := exec(t, "lint"); code != exitUsage {
		t.Errorf("no specs: code = %d, want %d", code, exitUsage)
	}
	if code, _, _ := exec(t, "lint", "testdata/does-not-exist.blazes"); code != exitUsage {
		t.Errorf("missing spec: code = %d, want %d", code, exitUsage)
	}
	if code, _, _ := exec(t, "lint", "-variant", "broken", wordcountSpec); code != exitUsage {
		t.Errorf("bad -variant: code = %d, want %d", code, exitUsage)
	}
}
