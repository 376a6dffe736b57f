package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The command is driven in-process through run(), pinning the documented
// 0/1/2 exit-code contract and the -json output against golden files.
// Regenerate goldens with:
//
//	go test ./cmd/blazes -run TestGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

const (
	wordcountSpec = "../../internal/spec/testdata/wordcount.blazes"
	adreportSpec  = "../../internal/spec/testdata/adreport.blazes"
)

// exec runs the command and captures its streams.
func exec(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(context.Background(), args, &out, &errb)
	return code, out.String(), errb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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
		t.Errorf("output differs from %s:\n got: %s\nwant: %s", path, got, want)
	}
}

func TestGoldenWordcountJSON(t *testing.T) {
	code, stdout, stderr := exec(t, "-spec", wordcountSpec, "-json")
	if code != exitOK || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, "wordcount.json", stdout)
}

func TestGoldenWordcountSealedRepairJSON(t *testing.T) {
	code, stdout, stderr := exec(t, "-spec", wordcountSpec, "-seal", "tweets=batch", "-repair", "-json")
	if code != exitOK || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, "wordcount_sealed_repair.json", stdout)
}

func TestGoldenAdreportCampaignJSON(t *testing.T) {
	code, stdout, stderr := exec(t,
		"-spec", adreportSpec, "-variant", "Report=CAMPAIGN", "-seal", "clicks=campaign", "-json")
	if code != exitOK || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, "adreport_campaign.json", stdout)
}

// TestGoldenSequencingList: the two goldens were recorded by the parent
// commit's `-sequencing -synthesize -json`; the list that replaced the flag
// must reproduce them byte for byte — M1 at the unsealed Count, the seal
// kept where the campaign seal suffices.
func TestGoldenSequencingList(t *testing.T) {
	for golden, args := range map[string][]string{
		"wordcount_sequencing.json":         {"-spec", wordcountSpec},
		"adreport_campaign_sequencing.json": {"-spec", adreportSpec, "-variant", "Report=CAMPAIGN", "-seal", "clicks=campaign"},
	} {
		code, stdout, stderr := exec(t, append(args, "-strategy", "sealing,sequencing", "-synthesize", "-json")...)
		if code != exitOK || stderr != "" {
			t.Fatalf("%s: code = %d, stderr = %q", golden, code, stderr)
		}
		checkGolden(t, golden, stdout)
	}
}

func TestGoldenWordcountVerdictText(t *testing.T) {
	code, stdout, stderr := exec(t, "-spec", wordcountSpec, "-seal", "tweets=batch", "-synthesize")
	if code != exitOK || stderr != "" {
		t.Fatalf("code = %d, stderr = %q", code, stderr)
	}
	checkGolden(t, "wordcount_sealed_synthesize.txt", stdout)
}

// TestJSONIsParseableAndStable: the golden is valid JSON and carries the
// report schema version.
func TestJSONIsParseableAndStable(t *testing.T) {
	_, stdout, _ := exec(t, "-spec", wordcountSpec, "-json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(stdout), &doc); err != nil {
		t.Fatalf("-json output is not valid JSON: %v", err)
	}
	for _, key := range []string{"version", "dataflow", "verdict", "streams"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("report missing %q", key)
		}
	}
}

// unknownStrategy is the catalog's unknown-name error: it lists the whole
// catalog, M1's `sequencing` included. retiredStrategy is the same error
// for merge-rewrite, which is a confluence annotation, not a strategy.
const (
	strategyCatalog = `(registered: [ordering partition-sealing quorum-ordering sealing sequencing])`
	unknownStrategy = `unknown strategy "nope" ` + strategyCatalog
	retiredStrategy = `unknown strategy "merge-rewrite" ` + strategyCatalog
)

// TestExitCodeContract pins the documented 0/1/2 contract for both the
// analysis flow and the verify subcommand.
func TestExitCodeContract(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		err  string // required stderr substring
	}{
		{"ok", []string{"-spec", wordcountSpec}, exitOK, ""},
		{"help", []string{"-h"}, exitOK, "usage: blazes"},
		{"verify-help", []string{"verify", "-h"}, exitOK, "usage: blazes verify"},
		{"ok-repair", []string{"-spec", wordcountSpec, "-seal", "tweets=batch", "-repair"}, exitOK, ""},
		{"missing-spec-flag", []string{}, exitUsage, "-spec is required"},
		{"unreadable-spec", []string{"-spec", "does-not-exist.blazes"}, exitError, "does-not-exist"},
		{"bad-flag", []string{"-nope"}, exitUsage, ""},
		{"explain-json-conflict", []string{"-spec", wordcountSpec, "-explain", "-json"}, exitUsage, "-explain cannot be combined"},
		{"bad-variant-syntax", []string{"-spec", adreportSpec, "-variant", "Report"}, exitUsage, "bad -variant"},
		{"unknown-variant-component", []string{"-spec", adreportSpec, "-variant", "Nope=X"}, exitUsage, "unknown component"},
		{"unknown-variant", []string{"-spec", adreportSpec, "-variant", "Report=NOPE"}, exitUsage, "no variant"},
		{"bad-seal-syntax", []string{"-spec", wordcountSpec, "-seal", "tweets"}, exitUsage, "bad -seal"},
		{"unknown-seal-stream", []string{"-spec", wordcountSpec, "-seal", "nope=batch"}, exitUsage, "unknown stream"},
		{"stray-args", []string{"-spec", wordcountSpec, "extra"}, exitUsage, "unexpected arguments"},
		{"verify-unknown-workload", []string{"verify", "-workload", "nope"}, exitUsage, "unknown workload"},
		{"verify-bad-seeds", []string{"verify", "-seeds", "0"}, exitUsage, "-seeds must be positive"},
		{"verify-stray-args", []string{"verify", "extra"}, exitUsage, "unexpected arguments"},
		{"verify-unknown-strategy", []string{"verify", "-strategy", "nope"}, exitUsage, unknownStrategy},
		{"unknown-strategy-in-list", []string{"-spec", wordcountSpec, "-strategy", "sealing,nope"}, exitUsage, unknownStrategy},
		{"merge-rewrite-retired", []string{"-spec", wordcountSpec, "-strategy", "merge-rewrite"}, exitUsage, retiredStrategy},
		{"verify-merge-rewrite-retired", []string{"verify", "-strategy", "merge-rewrite"}, exitUsage, retiredStrategy},
		{"sequencing-flag-retired", []string{"-spec", wordcountSpec, "-sequencing"}, exitUsage, "flag provided but not defined: -sequencing"},
		{"verify-sequencing-flag-retired", []string{"verify", "-sequencing"}, exitUsage, "flag provided but not defined: -sequencing"},
		{"verify-replay-reshrink-conflict", []string{"verify", "-replay", "x.json", "-reshrink", "dir"}, exitUsage, "cannot be combined"},
		{"verify-parallel-flag-retired", []string{"verify", "-parallel", "2"}, exitUsage, "flag provided but not defined: -parallel"},
		{"serve-snapshot-every-flag-retired", []string{"serve", "-snapshot-every", "8"}, exitUsage, "flag provided but not defined: -snapshot-every"},
		{"serve-journal-segment-bytes-flag-retired", []string{"serve", "-journal-segment-bytes", "4096"}, exitUsage, "flag provided but not defined: -journal-segment-bytes"},
		{"sweep-worker-retired", []string{"sweep-worker"}, exitUsage, "-spec is required"},
		{"verify-coordinator-flag-retired", []string{"verify", "-coordinator", "x"}, exitUsage, "flag provided but not defined: -coordinator"},
		{"verify-batch-flag-retired", []string{"verify", "-batch", "1"}, exitUsage, "flag provided but not defined: -batch"},
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

// TestVerifyUsageErrorHasNoSideEffects: a bad flag is reported before
// anything is written — `-shrink dir -seeds 0` exits 2 without creating
// dir.
func TestVerifyUsageErrorHasNoSideEffects(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	code, _, stderr := exec(t, "verify", "-shrink", dir, "-seeds", "0")
	if code != exitUsage || !strings.Contains(stderr, "-seeds must be positive") {
		t.Fatalf("exit = %d, stderr = %q; want %d and the -seeds error", code, stderr, exitUsage)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("usage error created %s (stat err %v)", dir, err)
	}
}

// TestVerifySubcommandJSON runs a reduced sweep of one workload end to end
// through the subcommand and checks the JSON report array.
func TestVerifySubcommandJSON(t *testing.T) {
	code, stdout, stderr := exec(t, "verify", "-workload", "synthetic-chains", "-seeds", "8", "-json")
	if code != exitOK {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	var reports []map[string]any
	if err := json.Unmarshal([]byte(stdout), &reports); err != nil {
		t.Fatalf("verify -json output invalid: %v", err)
	}
	if len(reports) != 1 || reports[0]["workload"] != "synthetic-chains" {
		t.Fatalf("reports = %v", reports)
	}
	if holds, _ := reports[0]["holds"].(bool); !holds {
		t.Errorf("synthetic-chains does not hold: %s", stdout)
	}
}

// TestVerifySubcommandSummary: the human-readable mode mentions each
// verified workload and its verdict.
func TestVerifySubcommandSummary(t *testing.T) {
	code, stdout, _ := exec(t, "verify", "-workload", "synthetic-set", "-seeds", "8")
	if code != exitOK {
		t.Fatalf("exit = %d", code)
	}
	for _, want := range []string{"synthetic-set", "guarantee HOLDS", "coordinated"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("summary missing %q:\n%s", want, stdout)
		}
	}
}
