package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blazes"
	"blazes/service"
)

// dupSpec is the wordcount spec with its tweet source declared twice.
const dupSpec = `Splitter:
  annotation: { from: tweets, to: words, label: CR }
Count:
  annotation: { from: words, to: counts, label: OW, subscript: [word, batch] }
Commit:
  annotation: { from: counts, to: db, label: CW }
topology:
  sources:
    - { name: tweets, to: Splitter.tweets }
    - { name: tweets, to: Splitter.tweets }
  streams:
    - { name: words, from: Splitter.words, to: Count.words }
    - { name: counts, from: Count.counts, to: Commit.counts }
  sinks:
    - { name: db, from: Commit.db }
`

// TestStreamNameDeclaredTwiceRefused: every way a graph comes into being
// refuses a stream name declared twice, and names the stream.
func TestStreamNameDeclaredTwiceRefused(t *testing.T) {
	const needle = `duplicate stream name "tweets"`
	// dupGraph is the wordcount graph with a second source named tweets.
	dupGraph := func() *blazes.Graph {
		g := blazes.WordcountTopology(false)
		g.Source("tweets", "Splitter", "tweets")
		return g
	}
	rows := []struct {
		way    string
		refuse func(t *testing.T) string // the refusal's text, "" for none
	}{
		{"spec build", func(t *testing.T) string {
			sp, err := blazes.ParseSpec(dupSpec)
			if err != nil {
				return err.Error()
			}
			_, err = sp.Graph("wordcount")
			return errText(err)
		}},
		{"dataflow.Graph.Validate", func(t *testing.T) string {
			return errText(dupGraph().Validate())
		}},
		{"blazes.OpenSession", func(t *testing.T) string {
			_, err := blazes.OpenSession(dupGraph())
			return errText(err)
		}},
		{"Analyzer.Analyze", func(t *testing.T) string {
			_, err := blazes.NewAnalyzer().Analyze(dupGraph())
			return errText(err)
		}},
		{"GraphBuilder.Build", func(t *testing.T) string {
			_, err := blazes.NewGraphBuilder("wordcount").
				ComponentPath("Splitter", "tweets", "words", blazes.CR).
				Source("tweets", "Splitter", "tweets").
				Source("tweets", "Splitter", "tweets").
				Sink("words", "Splitter", "words").
				Build()
			return errText(err)
		}},
		{"Session.Connect", func(t *testing.T) string {
			s, err := blazes.OpenSession(blazes.WordcountTopology(false))
			if err != nil {
				t.Fatal(err)
			}
			return errText(s.Connect("tweets", "", "Splitter.tweets"))
		}},
		{"POST /v1/sessions", func(t *testing.T) string {
			body, err := json.Marshal(service.CreateRequest{Name: "dup", Spec: dupSpec})
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			service.New(service.Options{}).Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
			var er service.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || rec.Code != http.StatusBadRequest || er.Error == "" {
				t.Errorf("answered %d %s, want 400 with an ErrorResponse", rec.Code, rec.Body)
			}
			return er.Error
		}},
		{"blazes -spec", func(t *testing.T) string {
			path := filepath.Join(t.TempDir(), "dup.blazes")
			if err := os.WriteFile(path, []byte(dupSpec), 0o644); err != nil {
				t.Fatal(err)
			}
			code, _, stderr := exec(t, "-spec", path)
			if code != exitError {
				t.Errorf("exit = %d, want %d", code, exitError)
			}
			return stderr
		}},
	}
	for _, row := range rows {
		t.Run(row.way, func(t *testing.T) {
			if got := row.refuse(t); !strings.Contains(got, needle) {
				t.Errorf("refusal %q does not contain %q", got, needle)
			}
		})
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
