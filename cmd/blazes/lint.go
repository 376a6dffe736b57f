package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"strings"

	"blazes"
)

// runLint implements `blazes lint`: parse each spec, build its graph, and
// run the BLZnnn graph diagnostics (see the DESIGN.md catalog). Unlike the
// analysis flow it takes spec files as positional arguments so CI can lint
// a whole corpus in one invocation.
//
// Exit codes follow the blazes convention: 0 when no diagnostic has error
// severity (warnings alone stay 0 so advisory findings never break a
// build), 1 when at least one error-severity diagnostic was reported, and
// 2 for usage errors or specs that fail to load.
func runLint(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazes lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonOut  = fs.Bool("json", false, "emit diagnostics as JSON")
		variants multiFlag
	)
	fs.Var(&variants, "variant", "Component=Variant annotation selection (repeatable, applied to every spec)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazes lint [-json] [-variant C=V] spec.blazes...\n\n")
		fs.PrintDefaults()
		fmt.Fprintf(stderr, `
exit codes:
  0  no error-severity diagnostics (warnings allowed)
  1  at least one error-severity diagnostic
  2  usage error or a spec failed to load
`)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		return exitUsage
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "blazes: lint needs at least one spec file")
		fs.Usage()
		return exitUsage
	}

	type fileResult struct {
		Spec        string                  `json:"spec"`
		Diagnostics []blazes.LintDiagnostic `json:"diagnostics"`
	}
	var results []fileResult
	hasErrors := false
	for _, path := range fs.Args() {
		spec, err := blazes.LoadSpec(path)
		if err != nil {
			fmt.Fprintln(stderr, "blazes:", strings.TrimPrefix(err.Error(), "blazes: "))
			return exitUsage
		}
		explicit := map[string]string{}
		for _, v := range variants {
			comp, variant, ok := strings.Cut(v, "=")
			if !ok || comp == "" || variant == "" {
				fmt.Fprintf(stderr, "blazes: bad -variant %q (want Component=Variant)\n", v)
				return exitUsage
			}
			// Variants apply across a corpus: skip components this spec
			// does not declare instead of failing the whole run.
			known, exists := spec.Variants(comp)
			if !exists || !slices.Contains(known, variant) {
				continue
			}
			explicit[comp] = variant
		}
		diags, err := lintSpec(spec, blazes.SpecName(path), explicit)
		if err != nil {
			fmt.Fprintln(stderr, "blazes:", strings.TrimPrefix(err.Error(), "blazes: "))
			return exitUsage
		}
		if blazes.HasLintErrors(diags) {
			hasErrors = true
		}
		results = append(results, fileResult{Spec: path, Diagnostics: diags})
	}

	if *jsonOut {
		for i := range results {
			if results[i].Diagnostics == nil {
				results[i].Diagnostics = []blazes.LintDiagnostic{}
			}
		}
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "blazes:", err)
			return exitError
		}
		fmt.Fprintln(stdout, string(data))
	} else {
		for _, r := range results {
			if len(r.Diagnostics) == 0 {
				fmt.Fprintf(stdout, "%s: ok\n", r.Spec)
				continue
			}
			for _, d := range r.Diagnostics {
				fmt.Fprintf(stdout, "%s: %s\n", r.Spec, d)
			}
		}
	}
	if hasErrors {
		return exitError
	}
	return exitOK
}

// lintSpec lints every variant selection of one spec and merges the
// findings. Components whose annotation comes only from named variants
// cannot build a graph until one is selected, so the sweep pins every
// variant-bearing component to its first declared variant (unless -variant
// chose one), then varies one component at a time — the sum of variant
// counts, not their product. Duplicate findings across selections collapse.
func lintSpec(spec *blazes.Spec, name string, explicit map[string]string) ([]blazes.LintDiagnostic, error) {
	base := map[string]string{}
	type sweep struct{ comp, variant string }
	var sweeps []sweep
	for _, comp := range spec.Components() {
		vs, _ := spec.Variants(comp)
		if len(vs) == 0 {
			continue
		}
		if v, ok := explicit[comp]; ok {
			base[comp] = v
			continue
		}
		base[comp] = vs[0]
		for _, v := range vs[1:] {
			sweeps = append(sweeps, sweep{comp, v})
		}
	}
	selections := []map[string]string{base}
	for _, sw := range sweeps {
		sel := map[string]string{}
		for c, v := range base {
			sel[c] = v
		}
		sel[sw.comp] = sw.variant
		selections = append(selections, sel)
	}

	seen := map[string]bool{}
	var merged []blazes.LintDiagnostic
	for _, sel := range selections {
		g, err := spec.Graph(name, blazes.WithVariants(sel))
		if err != nil {
			return nil, err
		}
		for _, d := range blazes.Lint(g) {
			key := d.Code + "\x00" + d.Subject + "\x00" + d.Message
			if seen[key] {
				continue
			}
			seen[key] = true
			merged = append(merged, d)
		}
	}
	slices.SortStableFunc(merged, blazes.LintDiagnostic.Compare)
	return merged, nil
}
