// Package blazes is a from-scratch Go reproduction of "Blazes: Coordination
// Analysis for Distributed Programs" (Alvaro, Conway, Hellerstein, Maier —
// ICDE 2014): the annotation calculus and whole-dataflow analysis that
// decide where a distributed dataflow needs coordination, the synthesis of
// seal-based and order-based coordination strategies, and every substrate
// the paper's evaluation depends on — a Storm-like stream engine, a
// Bloom-like declarative runtime with white-box analysis, a Zookeeper-like
// ordering service, the seal/punctuation protocol, and a deterministic
// discrete-event network simulator.
//
// This top-level package is the public API. It re-exports the domain
// vocabulary (Label, Annotation, Strategy, Coordination), and provides:
//
//   - GraphBuilder: fluent construction of annotated dataflows with
//     deferred validation (every mistake reported at Build, at once);
//   - Analyzer: the one-shot analysis façade, configured by functional
//     options (WithSealRepair, WithStrategy, WithVariant), wrapping
//     label derivation, strategy synthesis, and
//     fixpoint repair;
//   - Session: the mutable, incrementally re-analyzed counterpart for
//     the interactive repair loop — mutate (Annotate, SealStream,
//     Connect, SetVariant, ...) and Analyze re-derives only the
//     components the mutation can affect, with a Delta in the report;
//   - Report: the stable, JSON-serializable projection of an analysis
//     (stream labels, per-component derivations, verdict, strategies,
//     session deltas) emitted by `blazes -json` and golden-tested to
//     round-trip; the v2 decoder still accepts v1 documents;
//   - Spec: the grey-box annotation file format of Figure 1.
//
// Coordination is the one axis of delivery mechanisms (Figure 5's none /
// M1 / M2 / M3 plus the extensions); each mechanism has one Figure 5 name,
// one wire token (MechanismToken) and one strategy that installs it. A
// preference is a list of those strategies, named by WithStrategy:
// WithStrategy("sealing", "sequencing") says M1 sequencing where the
// default chain would say M2 ordering, and keeps every seal.
//
// Six sibling packages complete the public surface: blazes/substrate
// (the simulated Storm wordcount, ad-tracking network, and Bloom
// white-box extraction), blazes/experiments (regeneration of the paper's
// evaluation figures), blazes/verify (the schedule-exploration harness
// that proves the analyzer's guarantee under adversarial delivery),
// blazes/strategy (the catalog of coordination strategies),
// blazes/topogen (seeded synthetic specs at any scale), and
// blazes/service (the analysis as a long-running HTTP+JSON service —
// `blazes serve` — hosting concurrent sessions). Everything under
// internal/ is implementation detail; cmd/ and examples/ consume only
// the public packages.
//
// Sweeps over simulations accept a Parallelism option (see verify.Options,
// experiments.Fig11Config): independent seeded runs execute on a bounded
// worker pool and fold in index order, so results are byte-identical at
// any setting; one simulation is always sequential. See DESIGN.md's
// "Parallel execution" section.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// layering, and EXPERIMENTS.md for paper-vs-measured results.
package blazes
