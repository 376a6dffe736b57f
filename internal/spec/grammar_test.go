package spec

import (
	"reflect"
	"strings"
	"testing"
)

// The cases below pinned the tree parser's reading of the YAML subset one
// construct at a time. Each now runs the same construct through Parse inside
// the smallest Config that can hold it, and through the reference parser
// beside it (parseBoth), so the grammar stays pinned on the parser that ships.

// annotationOf parses src, which must define component C with one base
// annotation, and returns that annotation.
func annotationOf(t *testing.T, src string) AnnotationSpec {
	t.Helper()
	cfg, err := parseBoth(t, src)
	if err != nil {
		t.Fatalf("%q: %v", src, err)
	}
	c := cfg.Component("C")
	if c == nil || len(c.Annotations) != 1 {
		t.Fatalf("%q: component C = %+v", src, c)
	}
	return c.Annotations[0]
}

func TestParseScalars(t *testing.T) {
	cfg, err := parseBoth(t, "C:\n  Rep: true\n  annotation: {from: hello, to: 'quoted: text', label: \"double\", subscript: ['on', \"no\", True1]}\nD:\n  Rep: OFF\n  annotation: {from: a, to: b, label: CR}")
	if err != nil {
		t.Fatal(err)
	}
	c, d := cfg.Component("C"), cfg.Component("D")
	want := AnnotationSpec{From: "hello", To: "quoted: text", Label: "double", Subscript: []string{"on", "no", "True1"}}
	if !c.Rep || d.Rep || !reflect.DeepEqual(c.Annotations[0], want) {
		t.Errorf("C = %+v, D = %+v, want annotation %+v, C replicated, D not", c, d, want)
	}
}

func TestParseNestedMap(t *testing.T) {
	// The annotation, and the subscript inside it, as blocks.
	ann := annotationOf(t, "C:\n  annotation:\n    from: a\n    to: b\n    label: OW\n    subscript:\n      - x")
	if want := (AnnotationSpec{From: "a", To: "b", Label: "OW", Subscript: []string{"x"}}); !reflect.DeepEqual(ann, want) {
		t.Errorf("annotation = %+v, want %+v", ann, want)
	}
}

func TestParseListIndentedAndSameLevel(t *testing.T) {
	// Both YAML styles used in the paper: dash indented under the key, and
	// dash at the key's own indentation.
	for _, src := range []string{
		"C:\n  schema:\n    out:\n      - a\n      - b",
		"C:\n  schema:\n    out:\n    - a\n    - b",
	} {
		cfg, err := parseBoth(t, src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := cfg.Component("C").Schema["out"]; !reflect.DeepEqual(got, []string{"a", "b"}) {
			t.Errorf("%q: schema out = %v", src, got)
		}
	}
}

func TestParseFlowMapAndList(t *testing.T) {
	ann := annotationOf(t, "C: { annotation: [ { from: a, to: b, label: OW, subscript: [w, z] } ] }")
	if ann.From != "a" || !reflect.DeepEqual(ann.Subscript, []string{"w", "z"}) {
		t.Errorf("annotation = %+v", ann)
	}
}

func TestParseContinuationLines(t *testing.T) {
	ann := annotationOf(t, "C:\n  annotation: { from: a,\n     to: b,\n\n # between\nlabel: CR }")
	if ann.To != "b" || ann.Label != "CR" {
		t.Errorf("annotation = %+v", ann)
	}
}

func TestParseComments(t *testing.T) {
	ann := annotationOf(t, "# heading\nC: # trailing\n  annotation: { from: 1, to: 'not # a comment', label: a#b } # trailing")
	if ann.From != "1" || ann.To != "not # a comment" || ann.Label != "a#b" {
		t.Errorf("annotation = %+v", ann)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name, src, wantSub string
	}{
		{"tab indent", "a:\n\tb: c", "spec: line 2: tabs"},
		{"bare scalar", "just a scalar", "spec: line 1: expected \"key: value\""},
		{"duplicate key", "a: {}\na: {}", "spec: line 2: duplicate"},
		{"bad flow", "x: { unclosed", "spec: line 1: malformed"},
		{"tab below a syntax error", "a: {}\nb: [}\n\tc: d", "spec: line"}, // line 2 here, line 3 from the reference
		{"duplicate in nested block", "C:\n  annotation:\n    from: a\n    from: b", "spec: line 4: duplicate"},
		{"duplicate topology", "topology:\n  sources: []\ntopology:\n  sinks: []", "spec: line 3: duplicate"},
		{"empty item", "C:\n  annotation:\n    -\n", "spec: line 3: empty list items"},
		{"indentation", "C:\n    Rep: true\n  annotation: {from: a, to: b, label: CR}", "spec: line 3: unexpected indentation"},
		{"content after the map", "C: {}\n- x", "spec: line 2: unexpected content"},
		{"root list", "- a\n- b", "document root must be a mapping"},
		{"flow entry without key", "C: { annotation }", "spec: line 1: expected \"key: value\""},
		{"overridden flow value malformed", "C: { Rep: [x}, Rep: true }", "spec: line 1: malformed"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := parseBoth(t, tt.src)
			if err == nil || !strings.Contains(err.Error(), tt.wantSub) {
				t.Errorf("error = %v, want substring %q", err, tt.wantSub)
			}
		})
	}
}

func TestMapOrderPreserved(t *testing.T) {
	cfg, err := parseBoth(t, "z: {Z: {from: a, to: b, label: CR}, A: {from: a, to: b, label: CR}, Z: {from: a, to: b, label: CW}}\na: {}\nm: {}")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, c := range cfg.Components {
		names = append(names, c.Name)
	}
	if want := []string{"z", "a", "m"}; !reflect.DeepEqual(names, want) {
		t.Errorf("components = %v, want %v", names, want)
	}
	// A repeated flow key keeps its first position and takes its last value.
	z := cfg.Component("z")
	if want := []string{"Z", "A"}; !reflect.DeepEqual(z.VariantOrder, want) || z.Variants["Z"].Label != "CW" {
		t.Errorf("variants = %v (Z: %+v), want %v with the second Z", z.VariantOrder, z.Variants["Z"], want)
	}
}
