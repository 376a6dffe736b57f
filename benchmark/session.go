package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"blazes"
	"blazes/internal/dataflow"
	"blazes/topogen"
)

// edit is one scripted mutation of a session: a label edit (annotate, seal)
// or a topology edit (connect, remove).
type edit struct {
	kind string

	comp, from, to string // annotate
	ann            blazes.Annotation

	stream string   // seal, connect, remove
	key    []string // seal; empty unseals

	fromComp, fromIface string // connect: the tapped output interface
}

func (e edit) topology() bool { return e.kind == "connect" || e.kind == "remove" }

func (e edit) String() string {
	switch e.kind {
	case "annotate":
		return fmt.Sprintf("annotate %s %s->%s %s", e.comp, e.from, e.to, e.ann)
	case "seal":
		return fmt.Sprintf("seal %s %v", e.stream, e.key)
	case "connect":
		return fmt.Sprintf("connect %s %s.%s", e.stream, e.fromComp, e.fromIface)
	default:
		return "remove " + e.stream
	}
}

func (e edit) applySession(s *blazes.Session) error {
	switch e.kind {
	case "annotate":
		return s.Annotate(e.comp, e.from, e.to, e.ann)
	case "seal":
		return s.SealStream(e.stream, e.key...)
	case "connect":
		return s.Connect(e.stream, e.fromComp+"."+e.fromIface, "")
	default:
		return s.RemoveEdge(e.stream)
	}
}

// applyEngine makes the same mutation on a bare incremental engine's graph
// and reports it the way Session does.
func (e edit) applyEngine(inc *dataflow.Incremental) {
	g := inc.Graph()
	switch e.kind {
	case "annotate":
		g.Lookup(e.comp).SetPathAnn(e.from, e.to, e.ann)
		inc.NoteAnnotationChange(e.comp)
	case "seal":
		g.Stream(e.stream).Seal = blazes.Attrs(e.key...)
		inc.NoteStreamChange(e.stream)
	case "connect":
		g.Connect(e.stream, e.fromComp, e.fromIface, "", "")
		inc.NoteTopologyChange()
	default:
		g.RemoveStream(e.stream)
		inc.NoteTopologyChange()
	}
}

// editPeriod is the script's cycle: editPeriod-1 label edits, then one
// topology edit. One period is the workload's minimum run.
const editPeriod = 13

// flipAnnotations are what an annotate edit alternates a path between; none
// needs a gate, so every flip is valid on every path.
var flipAnnotations = []blazes.Annotation{blazes.CR, blazes.CW, blazes.ORStar(), blazes.OWStar()}

// sealAttrs is topogen's attribute vocabulary: any of them is in every
// schema a generated component declares.
var sealAttrs = []string{"key", "batch", "id", "window", "region", "epoch"}

// editScript generates the seeded edit sequence. It depends only on the
// graph it was built from and the seed — never on timing or on what the
// engine answered — so the same seed always yields the same edits.
//
// Where an edit lands decides what it costs: a flip near the sources
// re-derives a long downstream closure, a flip near the sinks almost
// nothing. Edit targets are therefore not drawn independently but taken
// from a golden-ratio sequence over the components (which topogen names in
// layer order) and over the streams: any run of consecutive edits covers
// the depths evenly, so a run's median does not hinge on which depths its
// few dozen draws happened to hit. The seed sets where the sequence starts.
type editScript struct {
	rng     *rand.Rand
	compAt  float64 // position in [0,1) of the next annotate or connect target
	sealAt  float64 // position in [0,1) of the next seal target
	comps   []*blazes.Component
	streams []string
	sealed  map[string]bool
	flipped map[string]int // annotated path → index into flipAnnotations
	n       int
	tap     string // the open tap, "" when none
	taps    int
}

func newEditScript(g *blazes.Graph, seed int64) *editScript {
	s := &editScript{rng: rand.New(rand.NewSource(seed)), sealed: map[string]bool{}, flipped: map[string]int{}}
	s.compAt, s.sealAt = s.rng.Float64(), s.rng.Float64()
	// Components inside a cycle are left out of annotate edits: a flip there
	// changes the supernode's structure and is a topology edit in effect.
	cyclic := cyclicComponents(g)
	for _, c := range g.Components() {
		if !cyclic[c.Name] {
			s.comps = append(s.comps, c)
		}
	}
	for _, st := range g.Streams() {
		s.streams = append(s.streams, st.Name)
		s.sealed[st.Name] = !st.Seal.IsEmpty()
	}
	return s
}

// cyclicComponents returns the components on a cycle of g (self-loops
// included): the members of the non-trivial strongly connected components of
// the component graph, by Tarjan's algorithm.
func cyclicComponents(g *blazes.Graph) map[string]bool {
	succ := map[string][]string{}
	cyclic := map[string]bool{}
	for _, st := range g.Streams() {
		if st.FromComp == "" || st.ToComp == "" {
			continue
		}
		if st.FromComp == st.ToComp {
			cyclic[st.FromComp] = true
		}
		succ[st.FromComp] = append(succ[st.FromComp], st.ToComp)
	}
	index, low, onStack := map[string]int{}, map[string]int{}, map[string]bool{}
	var stack []string
	var visit func(v string)
	visit = func(v string) {
		index[v], low[v] = len(index), len(index)
		stack, onStack[v] = append(stack, v), true
		for _, w := range succ[v] {
			if _, seen := index[w]; !seen {
				visit(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] != index[v] {
			return
		}
		top := len(stack) - 1
		for stack[top] != v {
			top--
		}
		members := stack[top:]
		stack = stack[:top]
		for _, m := range members {
			onStack[m] = false
			if len(members) > 1 {
				cyclic[m] = true
			}
		}
	}
	for _, c := range g.Components() {
		if _, seen := index[c.Name]; !seen {
			visit(c.Name)
		}
	}
	return cyclic
}

// goldenStep is the fractional part of the golden ratio: stepping a position
// by it modulo 1 never clusters.
const goldenStep = 0.6180339887498949

func (s *editScript) nextComp() *blazes.Component {
	c := s.comps[int(s.compAt*float64(len(s.comps)))]
	_, s.compAt = math.Modf(s.compAt + goldenStep)
	return c
}

func (s *editScript) next() edit {
	pos := s.n % editPeriod
	s.n++
	if pos == editPeriod-1 {
		if s.tap != "" {
			e := edit{kind: "remove", stream: s.tap}
			s.tap = ""
			return e
		}
		c := s.nextComp()
		outs := c.Outputs()
		s.taps++
		s.tap = fmt.Sprintf("bench-tap-%d", s.taps)
		return edit{kind: "connect", stream: s.tap, fromComp: c.Name, fromIface: outs[s.rng.Intn(len(outs))]}
	}
	if pos%4 == 3 {
		st := s.streams[int(s.sealAt*float64(len(s.streams)))]
		_, s.sealAt = math.Modf(s.sealAt + goldenStep)
		e := edit{kind: "seal", stream: st}
		if !s.sealed[st] {
			e.key = []string{sealAttrs[s.rng.Intn(len(sealAttrs))]}
		}
		s.sealed[st] = !s.sealed[st]
		return e
	}
	c := s.nextComp()
	p := c.Paths[s.rng.Intn(len(c.Paths))]
	key := c.Name + "\x00" + p.From + "\x00" + p.To
	// Step to a different annotation than the script last set, so that a
	// repeated draw of one path is never a no-op.
	cur, seen := s.flipped[key]
	next := s.rng.Intn(len(flipAnnotations))
	if seen {
		next = (cur + 1 + s.rng.Intn(len(flipAnnotations)-1)) % len(flipAnnotations)
	}
	s.flipped[key] = next
	return edit{kind: "annotate", comp: c.Name, from: p.From, to: p.To, ann: flipAnnotations[next]}
}

// render returns the script's first n edits as text, for the determinism
// test and for a person asking what a seed does.
func (s *editScript) render(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintln(&b, s.next())
	}
	return b.String()
}

// sessionWorkload is the interactive repair loop: one long-lived session
// over a generated graph, mutated by the edit script, re-synthesized after
// every edit. Label edits are the primary op class, topology edits (which
// rebuild the engine's structure caches) the "rebuild" class.
type sessionWorkload struct {
	e      env
	spec   *blazes.Spec
	sess   *blazes.Session
	script *editScript

	// The traced run drives a bare dataflow.Incremental with the same
	// edits, after each op and outside its timing, to tell the engine's
	// share of an edit from the session's.
	twin      *dataflow.Incremental
	lastEdit  edit
	lastSynth time.Duration
}

// sessionGraphSeed fixes the graph the session is opened over (the 10k
// reference topology of BENCH_8): what an edit costs depends on how far its
// effect propagates before a downstream label absorbs it, which differs
// between generated graphs by a fifth, so a graph per seed would measure the
// draw of the graph. The benchmark seed drives the edit script instead;
// analyze-oneshot is the workload that varies the graph.
const sessionGraphSeed = 8

func (w *sessionWorkload) setup(e env, rec *recorder) error {
	w.e = e
	res, err := topogen.Generate(topogen.Default(e.scale.graphN, sessionGraphSeed))
	if err != nil {
		return err
	}
	if w.spec, err = blazes.ParseSpec(res.Spec); err != nil {
		return err
	}
	rec.span("blazes.session_open", -1, -1, func() { w.sess, err = w.openSession() })
	if err != nil {
		return err
	}
	g := w.sess.Graph()
	w.script = newEditScript(g, e.seed)
	if rec != nil {
		w.twin = dataflow.NewIncremental(g)
		if _, _, err := w.twin.Analyze(context.Background()); err != nil {
			return err
		}
	}
	_, err = w.op(0, nil)
	w.after(rec)
	return err
}

// openSession opens a session over the workload's graph and runs the cold
// analysis every session starts with.
func (w *sessionWorkload) openSession() (*blazes.Session, error) {
	s, err := w.spec.OpenSession(fmt.Sprintf("session-%d-s%d", w.e.scale.graphN, sessionGraphSeed))
	if err != nil {
		return nil, err
	}
	_, err = s.Synthesize(context.Background())
	return s, err
}

func (w *sessionWorkload) op(i int, rec *recorder) (string, error) {
	ed := w.script.next()
	w.lastEdit = ed
	root := rec.begin("session.op", -1, i)
	defer rec.end(root)
	var err error
	rec.span("blazes.session_mutate", root, i, func() { err = ed.applySession(w.sess) })
	if err != nil {
		return "", fmt.Errorf("%s: %w", ed, err)
	}
	start := time.Now()
	rec.span("blazes.session_synthesize", root, i, func() { _, err = w.sess.Synthesize(context.Background()) })
	w.lastSynth = time.Since(start)
	if err != nil {
		return "", fmt.Errorf("%s: %w", ed, err)
	}
	// A label edit that rebuilt the structure caches has silently become
	// whole-graph work; a topology edit that did not has skipped it.
	if rebuilt := w.sess.LastStats().Rebuilt; rebuilt != ed.topology() {
		return "", fmt.Errorf("%s: rebuilt=%v", ed, rebuilt)
	}
	if ed.topology() {
		return "rebuild", nil
	}
	return "", nil
}

// after replays the op's edit on the bare engine, outside the op's timing;
// untraced ops of a traced run replay too, to keep the twin in step.
func (w *sessionWorkload) after(rec *recorder) {
	if w.twin == nil {
		return
	}
	ed := w.lastEdit
	name := "dataflow.incremental_label"
	if ed.topology() {
		name = "dataflow.incremental_rebuild"
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var stats dataflow.Stats
	rec.span(name, -1, -1, func() {
		ed.applyEngine(w.twin)
		_, stats, _ = w.twin.Analyze(context.Background()) // the session's own Synthesize already vouched for this graph
	})
	engine := time.Since(start)
	runtime.ReadMemStats(&after)
	if ed.topology() {
		return
	}
	rec.observe("dataflow.incremental_alloc_mb_per_edit", float64(after.TotalAlloc-before.TotalAlloc)/1e6)
	rec.observe("dataflow.incremental_recomputed_per_edit", float64(len(stats.Recomputed)))
	if total := stats.Reused + len(stats.Recomputed); total > 0 {
		rec.observe("dataflow.incremental_reused_share", float64(stats.Reused)/float64(total))
	}
	rec.observe("blazes.session_project_ms", float64(w.lastSynth-engine)/1e6)
}

func (w *sessionWorkload) run(budget time.Duration, rec *recorder) *result {
	res := serial(budget, evenMix, editPeriod, func(i int) (string, error) { return w.op(i, rec) }, func(int) { w.after(rec) })
	// p95 has ten samples beyond it from 200 edits up, which a full-length
	// run reaches; on a shorter run read it as "the slow edits", no more.
	rec.observe("blazes.session_edit_p95_ms", percentile(res.primary, 0.95))
	rec.observe("blazes.session_rebuild_p50_ms", median(res.samples["rebuild"]))
	return res
}

// probe opens a second session over the same graph to time the open and to
// weigh what one live session retains.
func (w *sessionWorkload) probe(rec *recorder) error {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var s *blazes.Session
	var err error
	rec.span("blazes.session_open", -1, -1, func() { s, err = w.openSession() })
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	rec.observe("blazes.session_retained_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/1e6)
	runtime.KeepAlive(s)
	return nil
}

// verify requires the session, after every edit of the run, to report
// byte-for-byte what a fresh one-shot analysis of the same graph reports.
func (w *sessionWorkload) verify(*recorder) error {
	rep, err := w.sess.Synthesize(context.Background())
	if err != nil {
		return err
	}
	fresh, err := blazes.NewAnalyzer().Synthesize(w.sess.Graph())
	if err != nil {
		return err
	}
	cp := *rep
	cp.Delta = nil // a one-shot report has no previous analysis to diff against
	got, err := cp.MarshalIndent()
	if err != nil {
		return err
	}
	want, err := fresh.Report().MarshalIndent()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("session report differs from a fresh analysis after %d edits", w.script.n)
	}
	return nil
}

func (w *sessionWorkload) close() error { return nil }
