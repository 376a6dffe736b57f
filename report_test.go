package blazes

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"blazes/internal/dataflow"
)

var update = flag.Bool("update", false, "rewrite golden report fixtures")

// wordcountReport is the sealed wordcount analysis with synthesis — the
// report `blazes -spec wordcount.blazes -seal tweets=batch -synthesize
// -json` emits.
func wordcountReport(t *testing.T) *Report {
	t.Helper()
	s := loadSpec(t, "wordcount.blazes")
	g, err := s.Graph("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnalyzer(WithSealRepair("tweets", "batch")).Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report()
}

// adReport is the CAMPAIGN ad-network analysis, sealed on campaign, after
// repair to the coordination fixpoint.
func adReport(t *testing.T) *Report {
	t.Helper()
	s := loadSpec(t, "adreport.blazes")
	g, err := s.Graph("adreport", WithVariant("Report", "CAMPAIGN"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewAnalyzer(WithSealRepair("clicks", "campaign")).Repair(g)
	if err != nil {
		t.Fatal(err)
	}
	return res.Report()
}

func goldenCompare(t *testing.T, name string, rep *Report) {
	t.Helper()
	got, err := rep.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update` to create fixtures)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("report JSON drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}

	// Round trip: the decoded fixture must deep-equal the live report.
	decoded, err := DecodeReport(want)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, rep) {
		t.Errorf("decoded report != generated report\ndecoded:  %+v\ngenerated: %+v", decoded, rep)
	}
}

func TestGoldenWordcountReport(t *testing.T) {
	goldenCompare(t, "report_wordcount.json", wordcountReport(t))
}

func TestGoldenAdReport(t *testing.T) {
	goldenCompare(t, "report_adreport.json", adReport(t))
}

// TestReportRoundTripsThroughEncodingJSON is the acceptance check spelled
// out: encode → decode → deep-equal, independent of the golden bytes.
func TestReportRoundTripsThroughEncodingJSON(t *testing.T) {
	for name, rep := range map[string]*Report{
		"wordcount": wordcountReport(t),
		"adreport":  adReport(t),
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			var back Report
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&back, rep) {
				t.Errorf("round trip lost data:\nbefore: %+v\nafter:  %+v", rep, &back)
			}
		})
	}
}

func TestReportContents(t *testing.T) {
	rep := wordcountReport(t)
	if rep.Version != ReportVersion {
		t.Errorf("version = %q", rep.Version)
	}
	if rep.Verdict.Kind != "Async" || !rep.Deterministic {
		t.Errorf("verdict = %+v, deterministic = %v", rep.Verdict, rep.Deterministic)
	}
	l, ok := rep.StreamLabel("tweets")
	if !ok || l.Kind != "Seal" || len(l.Key) != 1 || l.Key[0] != "batch" {
		t.Errorf("tweets label = %+v, %v", l, ok)
	}
	st, ok := rep.Strategy("Count")
	if !ok || st.Mechanism != "sealing" {
		t.Errorf("Count strategy = %+v, %v", st, ok)
	}
	if _, err := ParseMechanism(st.Mechanism); err != nil {
		t.Errorf("strategy mechanism not parseable: %v", err)
	}

	ad := adReport(t)
	if !ad.Repaired {
		t.Error("ad report not marked repaired")
	}
	if ad.Verdict.Kind != "Async" {
		t.Errorf("ad verdict = %+v", ad.Verdict)
	}
}

func TestDecodeReportRejectsUnknownVersion(t *testing.T) {
	if _, err := DecodeReport([]byte(`{"version":"blazes.report/v999"}`)); err == nil {
		t.Error("unknown version accepted")
	}
}

// TestDecodeReportRejectsNullEntry: the error names the list and the index.
func TestDecodeReportRejectsNullEntry(t *testing.T) {
	entry := `{"name":"a","label":{"kind":"Async","severity":2}}`
	for doc, want := range map[string]string{
		`{"version":"blazes.report/v2","streams":[null]}`:                         "streams[0]",
		`{"version":"blazes.report/v2","components":[null]}`:                      "components[0]",
		`{"version":"blazes.report/v1","streams":[` + entry + `,null]}`:           "streams[1]",
		`{"version":"blazes.report/v2","components":[{"name":"C"},{},null,null]}`: "components[2]",
	} {
		if _, err := DecodeReport([]byte(doc)); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("DecodeReport(%s) = %v, want an error naming %s", doc, err, want)
		}
	}
}

func TestMechanismTokensRoundTrip(t *testing.T) {
	for _, c := range dataflow.Coordinations() {
		back, err := ParseMechanism(MechanismToken(c))
		if err != nil || back != c {
			t.Errorf("mechanism %v → %q → %v, %v", c, MechanismToken(c), back, err)
		}
	}
	if _, err := ParseMechanism("teleportation"); err == nil {
		t.Error("bad token accepted")
	}
}
