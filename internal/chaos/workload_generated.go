package chaos

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"blazes/internal/dataflow"
	"blazes/internal/sim"
	"blazes/internal/topogen"
)

// GeneratedWorkload adapts a topogen-generated topology to the chaos
// harness: the generated graph — the same spec text `blazes gen` emits —
// is interpreted as a message-forwarding network and swept under fault
// plans like the hand-built workloads. Messages are injected at every
// source stream, forwarded once per component (deduplication terminates
// the generator's cycles), and folded into per-interface state whose
// sensitivity follows the interface's annotations: confluent interfaces
// accumulate a set, order-sensitive interfaces accumulate per-source
// hash chains, so delivery order is observable exactly where the analyzer
// says it is. Because no fault plan drops messages, the delivered *set* at
// every interface is schedule-independent; only arrival order varies —
// chaotic under CoordNone, preordained under M1, per-run under M2, and
// per-source-sequential under M3's sealing — which is precisely the
// nondeterminism the verdict is about.
//
// The workload runs one instance per seed and compares eventual state
// digests across schedules, so stripped sweeps surface cross-run (Run)
// nondeterminism on the order-sensitive interfaces the generator drew.
type GeneratedWorkload struct {
	// Components and Seed parameterize topogen.Default; the workload name
	// ("generated-<components>c-s<seed>") round-trips them through
	// LookupWorkload.
	Components int
	Seed       int64
	// MsgsPerSource is the number of messages injected per source stream;
	// 0 selects 3.
	MsgsPerSource int

	model once[*genModel]
}

// Generated returns the workload for topogen.Default(components, seed).
func Generated(components int, seed int64) *GeneratedWorkload {
	return &GeneratedWorkload{Components: components, Seed: seed}
}

// Name implements Workload; LookupWorkload parses this form back.
func (w *GeneratedWorkload) Name() string {
	return fmt.Sprintf("generated-%dc-s%d", w.Components, w.Seed)
}

// genIface is one component input interface of the generated graph.
type genIface struct {
	comp    int    // index into genModel.comps
	label   string // "component.interface:", as the digest writes it
	ordered bool   // some path from this interface is order-sensitive
}

// genModel is the prebuilt interpreter model: indexes over the generated
// graph so every seeded run only allocates per-run state.
type genModel struct {
	graph *dataflow.Graph
	comps []string
	// ifaces lists every (component, input interface) in component-name
	// then interface-name order.
	ifaces []genIface
	// outs[c] lists the interface indexes component c forwards to, in
	// stream declaration order.
	outs [][]int
	// sources lists the target interface index of each source stream, in
	// stream declaration order.
	sources []int
	msgsPer int
	// msgIDs[id] is message id's "source:seq" — what an order-sensitive
	// interface chains (wire data, TestWireNamesPinned) — formatted once.
	msgIDs []string
}

func (w *GeneratedWorkload) build() (*genModel, error) {
	res, err := topogen.Generate(topogen.Default(w.Components, w.Seed))
	if err != nil {
		return nil, fmt.Errorf("generated: %w", err)
	}
	g, err := res.Graph()
	if err != nil {
		return nil, fmt.Errorf("generated: %w", err)
	}
	m := &genModel{graph: g, msgsPer: w.MsgsPerSource}
	if m.msgsPer <= 0 {
		m.msgsPer = 3
	}
	compIdx := map[string]int{}
	for i, c := range g.Components() {
		m.comps = append(m.comps, c.Name)
		compIdx[c.Name] = i
	}
	ifaceIdx := map[string]int{}
	for ci, name := range m.comps {
		c := g.Lookup(name)
		for _, in := range c.Inputs() {
			ordered := false
			for _, p := range c.PathsFrom(in) {
				if p.Ann.OrderSensitive() {
					ordered = true
				}
			}
			ifaceIdx[name+"\x00"+in] = len(m.ifaces)
			m.ifaces = append(m.ifaces, genIface{comp: ci, label: name + "." + in + ":", ordered: ordered})
		}
	}
	m.outs = make([][]int, len(m.comps))
	for _, s := range g.Streams() {
		switch {
		case s.IsSource():
			ti, ok := ifaceIdx[s.ToComp+"\x00"+s.ToIface]
			if !ok {
				return nil, fmt.Errorf("generated: source %q targets unknown interface %s.%s", s.Name, s.ToComp, s.ToIface)
			}
			m.sources = append(m.sources, ti)
			for seq := 0; seq < m.msgsPer; seq++ {
				m.msgIDs = append(m.msgIDs, s.Name+":"+strconv.Itoa(seq))
			}
		case s.IsSink():
			// Sinks carry state out of the dataflow; the digest already
			// covers every component, so they need no interpretation.
		default:
			fi, ok := compIdx[s.FromComp]
			if !ok {
				return nil, fmt.Errorf("generated: stream %q leaves unknown component %q", s.Name, s.FromComp)
			}
			ti, ok := ifaceIdx[s.ToComp+"\x00"+s.ToIface]
			if !ok {
				return nil, fmt.Errorf("generated: stream %q targets unknown interface %s.%s", s.Name, s.ToComp, s.ToIface)
			}
			m.outs[fi] = append(m.outs[fi], ti)
		}
	}
	return m, nil
}

func (w *GeneratedWorkload) modelOnce() (*genModel, error) { return w.model.get(w.build) }

// Graph implements Workload.
func (w *GeneratedWorkload) Graph() (*dataflow.Graph, error) {
	m, err := w.modelOnce()
	if err != nil {
		return nil, err
	}
	return m.graph, nil
}

// Supports implements Workload: the interpreter can impose every Figure 5
// delivery mechanism on the generated graph, plus the registered ordering
// and sealing extensions (quorum stamps and per-partition seals both fold
// to canonical per-source orders at the digest level). Merge rewrite is
// out: generated graphs declare no commutative merges.
func (w *GeneratedWorkload) Supports(mech dataflow.Coordination) bool {
	switch mech {
	case dataflow.CoordNone, dataflow.CoordSequenced, dataflow.CoordDynamicOrder, dataflow.CoordSealed,
		dataflow.CoordQuorumOrder, dataflow.CoordPartitionSealed:
		return true
	}
	return false
}

// genMsg is one injected message: sources[src]'s seq-th message. Its
// global id is src*msgsPer+seq.
type genMsg struct {
	src, seq, id int
}

// genState is the per-run state of the interpreter.
type genState struct {
	m *genModel
	// seen[iface][id]: the message was applied at the interface (dedupe —
	// the at-least-once discipline). For confluent interfaces seen *is*
	// the state.
	seen [][]bool
	// chains[iface][src] is the order-sensitive fold: a hash chain over
	// the source's messages in arrival order (0 = no message yet; the
	// chain hash is never 0 because every link hashes non-empty input).
	chains [][]uint64
	// forwarded[comp][id]: the component already relayed the message
	// downstream (cycle termination).
	forwarded [][]bool
}

func newGenState(m *genModel) *genState {
	total := len(m.sources) * m.msgsPer
	st := &genState{
		m:         m,
		seen:      make([][]bool, len(m.ifaces)),
		chains:    make([][]uint64, len(m.ifaces)),
		forwarded: make([][]bool, len(m.comps)),
	}
	for i := range m.ifaces {
		st.seen[i] = make([]bool, total)
		if m.ifaces[i].ordered {
			st.chains[i] = make([]uint64, len(m.sources))
		}
	}
	for c := range m.comps {
		st.forwarded[c] = make([]bool, total)
	}
	return st
}

// apply folds one message into an interface's state; duplicates are
// ignored (idempotence under at-least-once delivery).
func (st *genState) apply(iface int, msg genMsg) {
	if st.seen[iface][msg.id] {
		return
	}
	st.seen[iface][msg.id] = true
	if st.m.ifaces[iface].ordered {
		st.chains[iface][msg.src] = synChainHash(st.chains[iface][msg.src], st.m.msgIDs[msg.id])
	}
}

// digest renders the canonical terminal state: every interface in model
// order, confluent interfaces by their (schedule-independent) message set,
// order-sensitive interfaces by their per-source chains.
func (st *genState) digest() string {
	h := fnv.New64a()
	var buf []byte
	for i, ifc := range st.m.ifaces {
		buf = append(buf[:0], ifc.label...)
		if ifc.ordered {
			for src, chain := range st.chains[i] {
				if chain != 0 {
					buf = append(strconv.AppendInt(buf, int64(src), 10), '=')
					buf = append(strconv.AppendUint(buf, chain, 16), ',')
				}
			}
		} else {
			for id, ok := range st.seen[i] {
				if ok {
					buf = append(strconv.AppendInt(buf, int64(id), 10), ',')
				}
			}
		}
		h.Write(append(buf, '|'))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// propagate pushes every message through the graph in canonical
// (source, seq) order, handing each (interface, message) arrival to visit
// exactly once per interface. This is the deterministic delivery order M1
// preordains; M3's per-source sealing folds to the same per-source
// sequential order, and M2 shuffles the arrival lists it produces.
func (m *genModel) propagate(visit func(iface int, msg genMsg)) {
	total := len(m.sources) * m.msgsPer
	forwarded := make([][]bool, len(m.comps))
	for c := range m.comps {
		forwarded[c] = make([]bool, total)
	}
	arrived := make([][]bool, len(m.ifaces))
	for i := range m.ifaces {
		arrived[i] = make([]bool, total)
	}
	var deliver func(iface int, msg genMsg)
	deliver = func(iface int, msg genMsg) {
		if arrived[iface][msg.id] {
			return
		}
		arrived[iface][msg.id] = true
		visit(iface, msg)
		c := m.ifaces[iface].comp
		if forwarded[c][msg.id] {
			return
		}
		forwarded[c][msg.id] = true
		for _, ti := range m.outs[c] {
			deliver(ti, msg)
		}
	}
	for src := range m.sources {
		for seq := 0; seq < m.msgsPer; seq++ {
			deliver(m.sources[src], genMsg{src: src, seq: seq, id: src*m.msgsPer + seq})
		}
	}
}

// Run implements Workload.
func (w *GeneratedWorkload) Run(seed int64, plan FaultPlan, mech dataflow.Coordination) (Outcome, error) {
	m, err := w.modelOnce()
	if err != nil {
		return Outcome{}, err
	}
	st := newGenState(m)

	switch mech {
	case dataflow.CoordNone:
		// Chaotic delivery: every hop is a shaped link drawing its own
		// latency (and partition holds and duplicates) from the seeded
		// simulator, so arrival order at order-sensitive interfaces is
		// schedule-dependent.
		s := sim.New(seed)
		link := sim.NewLink(s, plan.Shape(sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 10 * sim.Millisecond}))
		var deliver func(iface int, msg genMsg)
		deliver = func(iface int, msg genMsg) {
			st.apply(iface, msg)
			c := m.ifaces[iface].comp
			if st.forwarded[c][msg.id] {
				return
			}
			st.forwarded[c][msg.id] = true
			now := s.Now()
			for _, ti := range m.outs[c] {
				link.SendDup(sim.Unordered, now, func() { deliver(ti, msg) })
			}
		}
		for src := range m.sources {
			// Dense same-source send cadence (2ms) against ≥10ms latency
			// jitter: first-hop reordering is already likely, and each
			// further hop compounds it.
			for seq := 0; seq < m.msgsPer; seq++ {
				at := sim.Time(seq)*2*sim.Millisecond + sim.Time(src%8)*250*sim.Microsecond
				iface, msg := m.sources[src], genMsg{src: src, seq: seq, id: src*m.msgsPer + seq}
				link.SendDup(sim.Unordered, at, func() { deliver(iface, msg) })
			}
		}
		s.Run()

	case dataflow.CoordSequenced, dataflow.CoordSealed,
		dataflow.CoordQuorumOrder, dataflow.CoordPartitionSealed:
		// M1 preordains the (source, seq) total order; M1q's producer
		// stamps preordain the same canonical order without the sequencer;
		// M3 buffers each source's partition until sealed and folds it in
		// sequence order, and M3p releases each partition independently —
		// the terminal fold per source is identical. All collapse to the
		// canonical propagation order, deterministic across seeds.
		m.propagate(st.apply)

	case dataflow.CoordDynamicOrder:
		// M2: an ordering service fixes one arrival order per run — all
		// interfaces agree within the run, but the order is drawn from the
		// run's seed, so different runs may disagree (Figure 5 allows
		// exactly this cross-run nondeterminism).
		arrivals := make([][]genMsg, len(m.ifaces))
		m.propagate(func(iface int, msg genMsg) {
			arrivals[iface] = append(arrivals[iface], msg)
		})
		rng := sim.New(seed).Rand()
		for i, msgs := range arrivals {
			rng.Shuffle(len(msgs), func(a, b int) { msgs[a], msgs[b] = msgs[b], msgs[a] })
			for _, msg := range msgs {
				st.apply(i, msg)
			}
		}

	default:
		return Outcome{}, fmt.Errorf("generated: unsupported mechanism %s", mech)
	}

	return Outcome{Replicas: []ReplicaOutcome{{Final: st.digest()}}}, nil
}
