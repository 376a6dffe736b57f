// Command blazeslint runs the Blazes codebase linters — the custom static
// analyzers that enforce the determinism contract (see internal/lint):
// maporder, nondet and ctxflow. It loads the named packages through the go
// tool (default ./...), runs every registered analyzer and prints one
// diagnostic per line:
//
//	go run ./cmd/blazeslint ./...
//
// Exit codes (the blazes CLI convention):
//
//	0  no diagnostics
//	1  diagnostics reported
//	2  usage error or a package failed to load
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"blazes/internal/lint"
)

const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blazeslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: blazeslint [packages]   (default ./...)\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return exitOK
		}
		return exitUsage
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "blazeslint:", err)
		return exitUsage
	}
	pkgs, err := lint.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "blazeslint:", err)
		return exitUsage
	}
	analyzers := lint.All()
	found := false
	for _, pkg := range pkgs {
		for _, d := range lint.Analyze(pkg, analyzers) {
			fmt.Fprintln(stdout, d)
			found = true
		}
	}
	if found {
		return exitError
	}
	return exitOK
}
