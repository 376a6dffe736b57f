package blazes

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"blazes/internal/fd"
)

// oneShot is the indented report of a one-shot synthesis of g.
func oneShot(t *testing.T, g *Graph) []byte {
	t.Helper()
	res, err := NewAnalyzer().Synthesize(g)
	if err != nil {
		t.Fatal(err)
	}
	out, err := res.Report().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wordcountEditor is what editWordcount needs: a Session, or a graphEditor.
type wordcountEditor interface {
	SealStream(stream string, key ...string) error
	Annotate(component, from, to string, ann Annotation) error
	Connect(stream, from, to string) error
}

// editWordcount applies one edit of each kind to a wordcount graph or
// session: a seal, an annotation flip and a tap.
func editWordcount(t *testing.T, e wordcountEditor) {
	t.Helper()
	if err := e.SealStream("tweets", "batch"); err != nil {
		t.Fatal(err)
	}
	if err := e.Annotate("Count", "words", "counts", CR); err != nil {
		t.Fatal(err)
	}
	if err := e.Connect("tap", "Splitter.words", ""); err != nil {
		t.Fatal(err)
	}
}

// graphEditor edits a bare graph the way a session edits its own.
type graphEditor struct{ g *Graph }

func (e graphEditor) SealStream(stream string, key ...string) error {
	e.g.Stream(stream).Seal = fd.NewAttrSet(key...)
	return nil
}

func (e graphEditor) Annotate(component, from, to string, ann Annotation) error {
	e.g.Lookup(component).SetPathAnn(from, to, ann)
	return nil
}

// Connect taps from; editWordcount adds no other kind of stream.
func (e graphEditor) Connect(stream, from, _ string) error {
	comp, iface, _ := strings.Cut(from, ".")
	e.g.Sink(stream, comp, iface)
	return nil
}

// TestOpenSessionOwnsAClone: OpenSession(g) works on a copy — edits to g
// after the open change nothing the session reports, and no session edit
// shows up in g.
func TestOpenSessionOwnsAClone(t *testing.T) {
	g, err := loadSpec(t, "wordcount.blazes").Graph("wordcount")
	if err != nil {
		t.Fatal(err)
	}
	before := oneShot(t, g)
	s, err := OpenSession(g)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	first := marshalWithoutDelta(t, rep)

	editWordcount(t, graphEditor{g})
	edited := oneShot(t, g)
	if bytes.Equal(edited, before) {
		t.Fatal("the graph edits changed nothing; the test cannot tell")
	}
	rep, err = s.Synthesize(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalWithoutDelta(t, rep); !bytes.Equal(got, first) {
		t.Errorf("editing the caller's graph changed the session's report:\n%s\nwant\n%s", got, first)
	}
	if got := oneShot(t, s.Graph()); !bytes.Equal(got, before) {
		t.Errorf("editing the caller's graph changed the session's graph:\n%s", got)
	}

	editWordcount(t, s)
	if got := oneShot(t, g); !bytes.Equal(got, edited) {
		t.Errorf("a session edit showed up in the caller's graph:\n%s\nwant\n%s", got, edited)
	}
}

// TestSpecSessionsAreIndependent: two sessions opened on one Spec each own
// a graph of their own — an edit in one, a variant switch included, is not
// seen by the other, nor by a third opened after it.
func TestSpecSessionsAreIndependent(t *testing.T) {
	for _, tc := range []struct {
		file string
		opts []Option
		edit func(*testing.T, *Session)
	}{
		{"wordcount.blazes", nil, func(t *testing.T, s *Session) { editWordcount(t, s) }},
		{"adreport.blazes", []Option{WithVariant("Report", "POOR")}, func(t *testing.T, s *Session) {
			if err := s.SetVariant("Report", "CAMPAIGN"); err != nil {
				t.Fatal(err)
			}
			if err := s.SealStream("clicks", "campaign"); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.file, func(t *testing.T) {
			spec := loadSpec(t, tc.file)
			open := func() *Session {
				s, err := spec.OpenSession("twins", tc.opts...)
				if err != nil {
					t.Fatal(err)
				}
				return s
			}
			a, b := open(), open()
			fresh := oneShot(t, a.Graph())
			tc.edit(t, a)
			if bytes.Equal(oneShot(t, a.Graph()), fresh) {
				t.Fatal("the edits changed nothing; the test cannot tell")
			}
			rep, err := b.Synthesize(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewAnalyzer().Synthesize(open().Graph())
			if err != nil {
				t.Fatal(err)
			}
			wantRep, err := want.Report().MarshalIndent()
			if err != nil {
				t.Fatal(err)
			}
			if got := marshalWithoutDelta(t, rep); !bytes.Equal(got, wantRep) || !bytes.Equal(wantRep, fresh) {
				t.Errorf("an edit to one session reached another on the same spec:\n%s", got)
			}
		})
	}
}

// TestSpecOpenSessionErrors: opening a spec session fails with the same
// text as when the session copied the spec's graph before repairing it —
// the graph's own errors first, all of them, then an unknown strategy, then
// the seal repairs in option order.
func TestSpecOpenSessionErrors(t *testing.T) {
	const (
		invalid = "A: {annotation: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.x}\n  sinks:\n    - {name: t, from: B.o}\n"
		valid   = "A: {annotation: {from: i, to: o, label: CR}}\nB: {annotation: {from: i, to: o, label: OW, subscript: [k]}, CAMPAIGN: {from: i, to: o, label: CR}}\ntopology:\n  sources:\n    - {name: s, to: A.i}\n  streams:\n    - {name: ab, from: A.o, to: B.i}\n  sinks:\n    - {name: out, from: B.o}\n"
	)
	for _, tc := range []struct {
		name, spec string
		opts       []Option
		want       string
	}{
		{"invalid-spec", invalid, []Option{WithStrategy("nope"), WithSealRepair("nope", "k")},
			"dataflow: stream \"s\": component \"A\" has no input interface \"x\"\ndataflow: stream \"t\": unknown producer component \"B\""},
		{"unknown-strategy", valid, []Option{WithStrategy("sealing", "nope"), WithSealRepair("nope", "k")},
			`blazes: unknown strategy "nope" (registered: [ordering partition-sealing quorum-ordering sealing sequencing])`},
		{"unknown-seal-stream", valid, []Option{WithSealRepair("ab", "k"), WithSealRepair("nope", "k"), WithSealRepair("s")},
			`blazes: seal repair: unknown stream "nope" (declared: [ab out s])`},
		{"empty-seal-key", valid, []Option{WithSealRepair("ab"), WithSealRepair("nope", "k")},
			`blazes: seal repair on "ab" needs at least one key attribute`},
		{"unknown-variant", valid, []Option{WithVariant("B", "NOPE"), WithStrategy("nope")},
			`spec: component "B" has no variant "NOPE" (have [CAMPAIGN])`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec, err := ParseSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			s, err := spec.OpenSession("x", tc.opts...)
			if err == nil || err.Error() != tc.want {
				t.Errorf("OpenSession = %v, %v; want error %q", s, err, tc.want)
			}
		})
	}
}

// TestSpecOpenSessionAllocs: opening a spec session costs the build of its
// graph and a constant — no copy of the graph. The copy was one object per
// component, stream, path list and interface list.
func TestSpecOpenSessionAllocs(t *testing.T) {
	spec, _ := openGenerated(t, 1000, 8)
	opts := []Option{WithVariants(nil), WithStrategy("sealing"), WithSealRepair(spec.Streams()[0], "key")}
	build := testing.AllocsPerRun(3, func() {
		if _, err := spec.Graph("open", opts...); err != nil {
			t.Fatal(err)
		}
	})
	open := testing.AllocsPerRun(3, func() {
		if _, err := spec.OpenSession("open", opts...); err != nil {
			t.Fatal(err)
		}
	})
	if open > build+16 {
		t.Errorf("Spec.OpenSession allocates %.0f objects, Spec.Graph %.0f; want at most 16 more", open, build)
	}
	t.Logf("Spec.Graph: %.0f allocations, Spec.OpenSession: %.0f", build, open)
}

// TestSessionLintCachedPerVersion: a second Lint at the same version runs
// no diagnostics — it allocates only the copy it returns, and a caller that
// writes into its copy changes no later one — and after a seal, an
// annotation flip or a tap Lint equals a fresh Lint of the session's graph.
func TestSessionLintCachedPerVersion(t *testing.T) {
	spec, _ := openGenerated(t, 200, 8)
	s, err := spec.OpenSession("lint")
	if err != nil {
		t.Fatal(err)
	}
	first := s.Lint()
	if len(first) == 0 {
		t.Fatal("no diagnostics to cache; the test cannot tell")
	}
	if allocs := testing.AllocsPerRun(10, func() { s.Lint() }); allocs > 1 {
		t.Errorf("a second Lint at the same version allocates %.0f objects, want only the copy", allocs)
	}
	first[0].Message = "written by a caller"
	if got := s.Lint(); got[0].Message == first[0].Message || !reflect.DeepEqual(got, Lint(s.Graph())) {
		t.Errorf("a caller's write reached the cached diagnostics: %v", got[0])
	}

	g := s.Graph()
	var sealed, gated *Component
	for _, c := range g.Components() {
		if sealed == nil && len(c.OutSchema) > 0 {
			sealed = c
		}
		if c != sealed && len(c.Paths) > 0 {
			gated = c
		}
	}
	var stream, source string
	for _, st := range g.Streams() {
		if st.FromComp == sealed.Name && stream == "" {
			stream = st.Name
		}
		if st.IsSource() && source == "" {
			source = st.ToComp + "." + st.ToIface
		}
	}
	p := gated.Paths[0]
	for _, ed := range []struct {
		name string
		do   func() error
	}{
		{"seal", func() error { return s.SealStream(stream, "not-in-any-schema") }},
		{"annotate", func() error { return s.Annotate(gated.Name, p.From, p.To, Annotation{Write: true}) }},
		{"tap", func() error { return s.Connect("lint-tap", "", source) }},
	} {
		before := s.Lint()
		if err := ed.do(); err != nil {
			t.Fatalf("%s: %v", ed.name, err)
		}
		got, want := s.Lint(), Lint(s.Graph())
		if !reflect.DeepEqual(got, want) {
			t.Errorf("after the %s, Lint gives %d diagnostics and a fresh Lint %d, or they differ", ed.name, len(got), len(want))
		}
		if ed.name != "tap" && reflect.DeepEqual(got, before) {
			t.Errorf("the %s changed no diagnostic; the test cannot tell", ed.name)
		}
	}
}
