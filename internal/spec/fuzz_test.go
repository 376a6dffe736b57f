package spec

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// checkParse is the body of FuzzParseSpec (fuzz_external_test.go: its seeds
// need the generator, which imports this package), a differential fuzzer: the
// single-pass parser against the tree parser it replaced (reference_test.go).
// On every input
//
//  1. neither panics, and they agree on accept or reject;
//  2. an accepted input gives deeply equal Configs;
//  3. when both report a `spec: line N:` syntax error, N is the same. Which
//     of two errors in one file is reported may differ in two ways: the tree
//     parser finds every syntax error before it looks at meaning, and every
//     tab-indented line before any other syntax error; Parse reports what it
//     meets first. So a semantic error has no N, and a tab error is exempt;
//  4. valid inputs round-trip: a document the oracle parses is rendered back
//     to text by the test-only renderer below, re-parses to a deeply equal
//     document, satisfies 1–3 again, and gives an equal Config when it is one.
func checkParse(t testing.TB, src string) {
	t.Helper()
	cfg, cfgErr := parseBoth(t, src)
	doc, err := ParseDocument(src)
	if err != nil {
		return
	}
	rendered, ok := renderDocument(doc)
	if !ok {
		// The document contains scalars the plain renderer cannot
		// express unambiguously (e.g. strings holding both quote
		// kinds); round-tripping is not claimed for those.
		return
	}
	back, err := ParseDocument(rendered)
	if err != nil {
		t.Fatalf("rendered document no longer parses: %v\ninput: %q\nrendered: %q", err, src, rendered)
	}
	if !reflect.DeepEqual(doc, back) {
		t.Fatalf("document round trip mismatch\ninput: %q\nrendered: %q\n got: %#v\nwant: %#v",
			src, rendered, back, doc)
	}
	// When the document is a valid Blazes config, the config itself
	// must round-trip too.
	cfg2, err := parseBoth(t, rendered)
	if cfgErr != nil {
		return
	}
	if err != nil {
		t.Fatalf("rendered config no longer parses: %v\nrendered: %q", err, rendered)
	}
	if !reflect.DeepEqual(cfg, cfg2) {
		t.Fatalf("config round trip mismatch\ninput: %q\nrendered: %q", src, rendered)
	}
}

// parseBoth runs Parse and the reference parser on src, holds them to
// properties 1–3 of FuzzParseSpec, and returns what Parse returned.
func parseBoth(t testing.TB, src string) (*Config, error) {
	t.Helper()
	got, gotErr := Parse(src)
	want, wantErr := referenceParse(src)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("accept/reject mismatch: Parse error %v, reference error %v\ninput: %q", gotErr, wantErr, src)
	case gotErr == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("config mismatch\ninput: %q\n got: %+v\nwant: %+v", src, got, want)
	case gotErr != nil:
		n, m := syntaxLine(gotErr), syntaxLine(wantErr)
		tabs := strings.Contains(gotErr.Error()+wantErr.Error(), "tabs are not allowed")
		if n != 0 && m != 0 && n != m && !tabs {
			t.Fatalf("syntax error line mismatch: Parse %q, reference %q\ninput: %q", gotErr, wantErr, src)
		}
	}
	return got, gotErr
}

// syntaxLine is N of a `spec: line N:` error, 0 for any other.
func syntaxLine(err error) int {
	var n int
	if _, scanErr := fmt.Sscanf(err.Error(), "spec: line %d:", &n); scanErr != nil {
		return 0
	}
	return n
}

// differentialSeeds are inputs on which a streaming parser and a tree
// parser are most likely to part ways: repeated keys in flow maps (last
// value wins, first position stays), both spellings of a stream's rep,
// values of the wrong shape that a later repeat replaces, block forms of
// what the shipped files write inline, flow forms of what they write as
// blocks, and errors of two kinds in one file.
var differentialSeeds = []string{
	"C: { annotation: {from: a, to: b, label: CR}, V: x, V: {from: a, to: b, label: CW}, Rep: yes }\n",
	"C:\n  annotation:\n    from: a\n    to: b\n    label: OW\n    subscript:\n      - k\n      - 'on'\n",
	"C:\n  annotation:\n  - {from: a, to: b, label: CR, subscript: k, subscript: [k]}\n  Rep: off\n",
	"topology: { sources: [ {name: s, to: C.a, rep: true, Rep: false, rep: true} ], widgets: [ , ] }\n",
	"topology:\n  sources:\n    - { name: on, to: C.a }\n",
	"topology:\n  sources:\n    - { name: s, name: [x}, to: C.a }\n",
	"C:\n  annotation: { from: yes, to: b, label: CR }\n\tD: x\n",
	"C:\n  annotation: { from: a, to: b, label: no }\nD:\n    x: 1\n  y: 2\n",
	"C:\n  schema: { out: [a, b], out: [] }\n  annotation: []\n  schema2:\n    from: a\n    to: b\n    label: CR\n",
	"- a\n- {k: [v}\nx: y\n",
	"C:\n  annotation: { from: a, to: b, label: CR } # wraps {\n  Rep: TRUE\nC:\n  Rep: false\n",
	"C:\n  annotation: { from: 'a, b', to: \"c: d\", label: CR,\n    subscript: [x,\n # comment\n  y] }\n",
}

// renderDocument renders a parsed document back to the YAML subset. It
// reports false when a scalar cannot be rendered unambiguously.
func renderDocument(m *Map) (string, bool) {
	var b strings.Builder
	if ok := renderMap(&b, m, 0); !ok {
		return "", false
	}
	return b.String(), true
}

func renderMap(b *strings.Builder, m *Map, indent int) bool {
	for _, key := range m.Keys() {
		v, _ := m.Get(key)
		if !renderableKey(key) {
			return false
		}
		pad := strings.Repeat(" ", indent)
		switch val := v.(type) {
		case *Map:
			fmt.Fprintf(b, "%s%s:\n", pad, key)
			if val.Len() == 0 {
				// An empty nested map renders as an empty scalar, which
				// re-parses as "": only equal when it was one already.
				return false
			}
			if !renderMap(b, val, indent+2) {
				return false
			}
		case []Value:
			if len(val) == 0 {
				// A block list cannot express zero items; the inline
				// form can.
				fmt.Fprintf(b, "%s%s: []\n", pad, key)
				continue
			}
			fmt.Fprintf(b, "%s%s:\n", pad, key)
			for _, item := range val {
				s, ok := renderInline(item)
				if !ok {
					return false
				}
				fmt.Fprintf(b, "%s  - %s\n", pad, s)
			}
		default:
			s, ok := renderScalar(val)
			if !ok {
				return false
			}
			fmt.Fprintf(b, "%s%s: %s\n", pad, key, s)
		}
	}
	return true
}

func renderInline(v Value) (string, bool) {
	switch val := v.(type) {
	case *Map:
		parts := make([]string, 0, val.Len())
		for _, key := range val.Keys() {
			if !renderableKey(key) {
				return "", false
			}
			inner, _ := val.Get(key)
			s, ok := renderInline(inner)
			if !ok {
				return "", false
			}
			parts = append(parts, fmt.Sprintf("%s: %s", key, s))
		}
		return "{" + strings.Join(parts, ", ") + "}", true
	case []Value:
		parts := make([]string, 0, len(val))
		for _, item := range val {
			s, ok := renderInline(item)
			if !ok {
				return "", false
			}
			parts = append(parts, s)
		}
		return "[" + strings.Join(parts, ", ") + "]", true
	default:
		return renderScalar(val)
	}
}

// renderScalar renders a bool or string scalar, quoting strings that would
// otherwise re-parse as something else.
func renderScalar(v Value) (string, bool) {
	switch val := v.(type) {
	case bool:
		if val {
			return "true", true
		}
		return "false", true
	case string:
		if val == "" {
			return "''", true
		}
		plain := val
		needsQuote := false
		switch strings.ToLower(plain) {
		case "true", "yes", "on", "false", "no", "off":
			needsQuote = true
		}
		if strings.ContainsAny(plain, "{}[]'\",#:\n") ||
			strings.TrimSpace(plain) != plain ||
			strings.Contains(plain, "- ") || plain == "-" {
			needsQuote = true
		}
		if !needsQuote {
			return plain, true
		}
		if strings.ContainsRune(plain, '\n') {
			return "", false // no escape syntax in the subset
		}
		if !strings.ContainsRune(plain, '\'') {
			return "'" + plain + "'", true
		}
		if !strings.ContainsRune(plain, '"') {
			return "\"" + plain + "\"", true
		}
		return "", false // holds both quote kinds: unrepresentable
	default:
		return "", false
	}
}

// renderableKey: keys are emitted bare, so they must survive splitKey.
func renderableKey(key string) bool {
	if key == "" || strings.TrimSpace(key) != key {
		return false
	}
	return !strings.ContainsAny(key, ":{}[]'\",#\n-")
}
