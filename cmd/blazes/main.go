// Command blazes analyzes an annotated dataflow specification (the paper's
// "grey box" input, Figure 1): it derives stream labels, reports the
// consistency verdict, and synthesizes the cheapest safe coordination
// strategy. The verify subcommand goes further and *proves* the guarantee
// by adversarial execution: it runs built-in workloads under many seeded
// delivery schedules with fault injection and checks that coordinated runs
// are outcome-invariant while stripped runs diverge. The serve subcommand
// runs the analysis as a long-running HTTP+JSON service hosting mutable,
// incrementally re-analyzed sessions (see blazes/service). The lint
// subcommand runs the severity-ranked BLZnnn graph diagnostics (seal keys
// missing from schemas, contradictory annotations, unreachable components,
// unsealed nondeterministic cycles — see DESIGN.md) over one or more specs.
// The gen subcommand emits seeded synthetic `.blazes` specs at any scale
// (layered DAGs, cyclic supernodes, mixed annotations — see blazes/topogen)
// for stress, fuzz, and benchmark corpora.
//
// Usage:
//
//	blazes -spec internal/spec/testdata/wordcount.blazes -explain
//	blazes -spec internal/spec/testdata/adreport.blazes \
//	       -variant Report=CAMPAIGN -seal clicks=campaign -synthesize
//	blazes -spec internal/spec/testdata/wordcount.blazes -seal tweets=batch -json
//	blazes verify -workload wordcount-storm -seeds 64
//	blazes verify -json
//	blazes verify -workload synthetic-chains -shrink traces/
//	blazes verify -replay traces/synthetic-chains-none-reorder.json
//	blazes verify -seeds 10000 -json
//	blazes serve -addr 127.0.0.1:8351
//	blazes lint internal/spec/testdata/wordcount.blazes internal/spec/testdata/adreport.blazes
//	blazes gen -components 10000 -seed 8 -o big.blazes
//
// Flags (analysis mode):
//
//	-spec file        the Blazes configuration file (annotations + topology)
//	-variant C=V      select a named annotation variant for component C
//	-seal S=a+b       annotate stream S with Seal on attributes a,b
//	-explain          print the full derivation tree
//	-synthesize       print synthesized coordination strategies
//	-repair           apply strategies and re-analyze to a fixpoint
//	-strategy a,b     try these coordination strategies, in order, before
//	                  the default chain ("sealing,sequencing": M1 where
//	                  ordering is needed, a seal wherever one suffices)
//	-json             emit the analysis as a machine-readable Report
//	                  (mutually exclusive with -explain: the report
//	                  already carries the full derivation)
//
// Exit codes:
//
//	0  analysis completed (whatever the verdict) / every verified
//	   workload upheld the guarantee
//	1  the spec failed to load, the analysis failed, or a verified
//	   workload violated the guarantee
//	2  usage error: bad flag syntax, unknown stream, component, variant,
//	   strategy or workload
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"

	"blazes"
	"blazes/strategy"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

func main() {
	// ^C / SIGTERM cancel the context: verify sweeps stop at the next
	// seed boundary and serve shuts down gracefully, instead of the
	// process dying mid-write (or not at all).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches to the analysis flow or the verify/serve subcommands; it
// returns the process exit code so tests can drive the command in-process.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "verify":
			return runVerify(ctx, args[1:], stdout, stderr)
		case "serve":
			return runServe(ctx, args[1:], stdout, stderr)
		case "lint":
			return runLint(args[1:], stdout, stderr)
		case "gen":
			return runGen(args[1:], stdout, stderr)
		}
	}
	return runAnalyze(args, stdout, stderr)
}

func runAnalyze(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazes", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specPath   = fs.String("spec", "", "Blazes configuration file")
		explain    = fs.Bool("explain", false, "print the full derivation")
		synthesize = fs.Bool("synthesize", false, "print synthesized strategies")
		repair     = fs.Bool("repair", false, "apply strategies and re-analyze to a fixpoint")
		prefer     = fs.String("strategy", "", "comma-separated coordination strategies to try first during synthesis")
		jsonOut    = fs.Bool("json", false, "emit a machine-readable Report (JSON)")
		variants   multiFlag
		seals      multiFlag
	)
	fs.Var(&variants, "variant", "Component=Variant annotation selection (repeatable)")
	fs.Var(&seals, "seal", "stream=attr+attr seal annotation (repeatable)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazes -spec file [flags]\n       blazes verify [flags]\n       blazes serve [flags]\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
exit codes:
  0  analysis completed (whatever the verdict)
  1  the spec failed to load or the analysis failed
  2  usage error: bad flag syntax, unknown stream, component, variant or strategy
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	usageError := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "blazes: %s\n", fmt.Sprintf(format, a...))
		fs.Usage()
		return exitUsage
	}
	fatal := func(err error) int {
		// Public-API errors already carry the "blazes: " prefix.
		fmt.Fprintln(stderr, "blazes:", strings.TrimPrefix(err.Error(), "blazes: "))
		return exitError
	}

	if *specPath == "" {
		return usageError("-spec is required")
	}
	if fs.NArg() > 0 {
		return usageError("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	if *explain && *jsonOut {
		return usageError("-explain cannot be combined with -json (the report already carries the full derivation)")
	}
	names, err := strategy.Parse(*prefer)
	if err != nil {
		return usageError("-strategy: %v", err)
	}

	spec, err := blazes.LoadSpec(*specPath)
	if err != nil {
		return fatal(err)
	}

	opts := []blazes.Option{blazes.WithStrategy(names...)}
	for _, v := range variants {
		comp, variant, ok := strings.Cut(v, "=")
		if !ok || comp == "" || variant == "" {
			return usageError("bad -variant %q (want Component=Variant)", v)
		}
		known, exists := spec.Variants(comp)
		if !exists {
			return usageError("-variant %s: unknown component %q (components: %s)",
				v, comp, strings.Join(spec.Components(), ", "))
		}
		if !slices.Contains(known, variant) {
			return usageError("-variant %s: component %q has no variant %q (variants: %s)",
				v, comp, variant, strings.Join(known, ", "))
		}
		opts = append(opts, blazes.WithVariant(comp, variant))
	}
	knownStreams := spec.Streams()
	for _, s := range seals {
		stream, attrs, ok := strings.Cut(s, "=")
		if !ok || stream == "" || attrs == "" {
			return usageError("bad -seal %q (want stream=attr+attr)", s)
		}
		if !slices.Contains(knownStreams, stream) {
			return usageError("-seal %s: unknown stream %q (streams: %s)",
				s, stream, strings.Join(knownStreams, ", "))
		}
		key := strings.Split(attrs, "+")
		for _, attr := range key {
			if attr == "" {
				return usageError("bad -seal %q: empty attribute name (want stream=attr+attr)", s)
			}
		}
		opts = append(opts, blazes.WithSealRepair(stream, key...))
	}

	g, err := spec.Graph(blazes.SpecName(*specPath), opts...)
	if err != nil {
		return fatal(err)
	}

	analyzer := blazes.NewAnalyzer(opts...)
	// JSON mode with -repair emits only the fixpoint report; skip the
	// pre-repair analysis that would otherwise be discarded.
	var res *blazes.Result
	if !*jsonOut || !*repair {
		if *synthesize {
			res, err = analyzer.Synthesize(g)
		} else {
			res, err = analyzer.Analyze(g)
		}
		if err != nil {
			return fatal(err)
		}
	}
	var fixpoint *blazes.Result
	if *repair {
		if fixpoint, err = analyzer.Repair(g); err != nil {
			return fatal(err)
		}
	}

	if *jsonOut {
		// One report: the repair fixpoint when -repair is set (marked
		// "repaired": true), otherwise the input analysis.
		final := res
		if fixpoint != nil {
			final = fixpoint
		}
		out, err := final.Report().MarshalIndent()
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintln(stdout, string(out))
		return exitOK
	}

	if *explain {
		fmt.Fprintln(stdout, res.Explain())
	} else {
		fmt.Fprintf(stdout, "verdict: %s (deterministic: %v)\n", res.Verdict(), res.Deterministic())
	}
	if *synthesize {
		for _, st := range res.Strategies() {
			fmt.Fprintf(stdout, "strategy: %s\n  reason: %s\n", st, st.Reason)
		}
	}
	if fixpoint != nil {
		// Repair reports the strategies it applied, exactly once, with the
		// post-repair verdict.
		for _, st := range fixpoint.Strategies() {
			fmt.Fprintf(stdout, "applied: %s\n  reason: %s\n", st, st.Reason)
		}
		fmt.Fprintf(stdout, "after repair (%d strategies): verdict %s (deterministic: %v)\n",
			len(fixpoint.Strategies()), fixpoint.Verdict(), fixpoint.Deterministic())
	}
	return exitOK
}
