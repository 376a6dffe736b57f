package blazes

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzReportRoundTrip: any JSON DecodeReport accepts must survive a
// marshal → decode → marshal cycle byte-identically (the wire schema is
// loss-free), across both the v1 and v2 schemas. The corpus seeds are the
// recorded golden documents — v1 fixtures, current v2 goldens, and a
// hand-built delta-carrying session report — plus degenerate shapes, among
// them the null list entries DecodeReport rejects: an accepted document has
// no nil entry.
func FuzzReportRoundTrip(f *testing.F) {
	for _, name := range []string{
		"report_wordcount_v1.json",
		"report_adreport_v1.json",
		"report_wordcount.json",
		"report_adreport.json",
	} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	// A session report with a populated Delta section.
	sessionReport := func() []byte {
		s, err := OpenSession(WordcountTopology(false))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := s.Synthesize(f.Context()); err != nil {
			f.Fatal(err)
		}
		if err := s.SealStream("tweets", "batch"); err != nil {
			f.Fatal(err)
		}
		rep, err := s.Synthesize(f.Context())
		if err != nil {
			f.Fatal(err)
		}
		out, err := rep.MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	f.Add(sessionReport())
	f.Add([]byte(`{"version":"blazes.report/v2"}`))
	f.Add([]byte(`{"version":"blazes.report/v1","streams":[{"name":"s","label":{"kind":"Async","severity":2}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	// The lists hold their entries by address: a null entry is rejected.
	f.Add([]byte(`{"version":"blazes.report/v2","streams":[null]}`))
	f.Add([]byte(`{"version":"blazes.report/v2","components":[null]}`))
	f.Add([]byte(`{"version":"blazes.report/v2","streams":[{"name":"a","label":{"kind":"Async","severity":2}},null,{"name":"b","label":{"kind":"Run","severity":4}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if slices.Index(rep.Streams, nil) >= 0 || slices.Index(rep.Components, nil) >= 0 {
			t.Fatalf("accepted report has a nil entry: %s", data)
		}
		first, err := json.Marshal(rep)
		if err != nil {
			t.Fatalf("accepted report failed to marshal: %v", err)
		}
		back, err := DecodeReport(first)
		if err != nil {
			t.Fatalf("re-decode of own output failed: %v\noutput: %s", err, first)
		}
		second, err := json.Marshal(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("round trip not stable:\nfirst:  %s\nsecond: %s", first, second)
		}
	})
}
