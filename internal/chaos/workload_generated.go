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

// total is the number of messages a run injects. sources[src]'s seq-th
// message has id src*msgsPer+seq, so id/msgsPer is its source.
func (m *genModel) total() int { return len(m.sources) * m.msgsPer }

// genState is the per-run state of the interpreter.
type genState struct {
	m *genModel
	// seen[iface*total+id]: the message was applied at the interface
	// (dedupe — the at-least-once discipline). For confluent interfaces seen
	// *is* the state.
	seen []bool
	// chains[iface][src] is the order-sensitive fold: a hash chain over
	// the source's messages in arrival order (0 = no message yet; the
	// chain hash is never 0 because every link hashes non-empty input).
	chains [][]uint64
	// forwarded[comp*total+id]: the component already relayed the message
	// downstream (cycle termination).
	forwarded []bool
}

func newGenState(m *genModel) *genState {
	total := m.total()
	st := &genState{
		m:         m,
		seen:      make([]bool, len(m.ifaces)*total),
		chains:    make([][]uint64, len(m.ifaces)),
		forwarded: make([]bool, len(m.comps)*total),
	}
	for i := range m.ifaces {
		if m.ifaces[i].ordered {
			st.chains[i] = make([]uint64, len(m.sources))
		}
	}
	return st
}

// apply folds message id into an interface's state; duplicates are ignored
// (idempotence under at-least-once delivery).
func (st *genState) apply(iface, id int) {
	at := iface*st.m.total() + id
	if st.seen[at] {
		return
	}
	st.seen[at] = true
	if st.m.ifaces[iface].ordered {
		src := id / st.m.msgsPer
		st.chains[iface][src] = synChainHash(st.chains[iface][src], st.m.msgIDs[id])
	}
}

// forward reports whether the component that interface iface belongs to
// relays message id now, which it does the first time only.
func (st *genState) forward(iface, id int) bool {
	at := st.m.ifaces[iface].comp*st.m.total() + id
	if st.forwarded[at] {
		return false
	}
	st.forwarded[at] = true
	return true
}

// digest renders the canonical terminal state: every interface in model
// order, confluent interfaces by their (schedule-independent) message set,
// order-sensitive interfaces by their per-source chains.
func (st *genState) digest() string {
	h := fnv.New64a()
	var buf []byte
	total := st.m.total()
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
			for id, ok := range st.seen[i*total : (i+1)*total] {
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
func (m *genModel) propagate(visit func(iface, id int)) {
	total := m.total()
	arrived := make([]bool, len(m.ifaces)*total)
	forwarded := make([]bool, len(m.comps)*total)
	var deliver func(iface, id int)
	deliver = func(iface, id int) {
		if arrived[iface*total+id] {
			return
		}
		arrived[iface*total+id] = true
		visit(iface, id)
		c := m.ifaces[iface].comp
		if forwarded[c*total+id] {
			return
		}
		forwarded[c*total+id] = true
		for _, ti := range m.outs[c] {
			deliver(ti, id)
		}
	}
	for src := range m.sources {
		for seq := 0; seq < m.msgsPer; seq++ {
			deliver(m.sources[src], src*m.msgsPer+seq)
		}
	}
}

// genHops is CoordNone's run: every forwarding hop is a message on one
// shaped link. A hop's callback holds the run and one word packing the
// target interface (high half) and the message id (low half).
type genHops struct {
	st   *genState
	s    *sim.Sim
	link *sim.Link
}

// send puts message id on the link towards interface iface, leaving its
// sender at at.
func (r *genHops) send(at sim.Time, iface, id int) {
	hop := uint64(iface)<<32 | uint64(id)
	r.link.SendDup(sim.Unordered, at, func() { r.deliver(hop) })
}

// deliver applies an arrived hop and relays it the first time its
// component sees the message.
func (r *genHops) deliver(hop uint64) {
	iface, id := int(hop>>32), int(uint32(hop))
	r.st.apply(iface, id)
	if !r.st.forward(iface, id) {
		return
	}
	now := r.s.Now()
	for _, ti := range r.st.m.outs[r.st.m.ifaces[iface].comp] {
		r.send(now, ti, id)
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
		r := &genHops{st: st, s: s, link: sim.NewLink(s, plan.Shape(sim.LinkConfig{MinDelay: 100 * sim.Microsecond, MaxDelay: 10 * sim.Millisecond}))}
		for src := range m.sources {
			// Dense same-source send cadence (2ms) against ≥10ms latency
			// jitter: first-hop reordering is already likely, and each
			// further hop compounds it.
			for seq := 0; seq < m.msgsPer; seq++ {
				at := sim.Time(seq)*2*sim.Millisecond + sim.Time(src%8)*250*sim.Microsecond
				r.send(at, m.sources[src], src*m.msgsPer+seq)
			}
		}
		s.Run()
		s.Release()

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
		arrivals := make([][]int, len(m.ifaces))
		m.propagate(func(iface, id int) {
			arrivals[iface] = append(arrivals[iface], id)
		})
		s := sim.New(seed)
		rng := s.Rand()
		for i, ids := range arrivals {
			rng.Shuffle(len(ids), func(a, b int) { ids[a], ids[b] = ids[b], ids[a] })
			for _, id := range ids {
				st.apply(i, id)
			}
		}
		s.Release()

	default:
		return Outcome{}, fmt.Errorf("generated: unsupported mechanism %s", mech)
	}

	return Outcome{Replicas: []ReplicaOutcome{{Final: st.digest()}}}, nil
}
