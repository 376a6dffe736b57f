// Command experiments regenerates the paper's evaluation figures (Section
// VIII) and the Figure 5 anomaly matrix on the simulated substrate,
// printing the series/rows the paper plots.
//
// Usage:
//
//	experiments -fig all           # everything, paper-scale
//	experiments -fig 11            # the Storm wordcount sweep
//	experiments -fig 12 -quick     # reduced-scale ad-network run
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"blazes/experiments"
)

func main() {
	// ^C / SIGTERM cancel the sweeps at the next simulation boundary.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		fig      = flag.String("fig", "all", "figure to regenerate: 5, 11, 12, 13, 14, or all")
		quick    = flag.Bool("quick", false, "reduced scale (faster, same shapes)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		parallel = flag.Int("parallel", 0, "workers for a figure's independent simulations (0 = one per CPU, 1 = sequential; figures are identical at any setting)")
	)
	flag.Parse()
	parallelism, err := libraryParallelism(*parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	entries := 1000
	sleep := experiments.Time(0)
	batch := 0
	if *quick {
		entries = 150
		sleep = 50 * experiments.Millisecond
		batch = 10
	}

	run("5", func() error {
		experiments.PrintFig5(os.Stdout, experiments.Fig5Matrix(8))
		return nil
	})
	run("11", func() error {
		cfg := experiments.DefaultFig11()
		cfg.Seed = *seed
		cfg.Parallelism = parallelism
		if *quick {
			cfg.Duration = 400 * experiments.Millisecond
			cfg.Runs = 1
		}
		rows, err := experiments.Fig11Context(ctx, cfg)
		if err != nil {
			return err
		}
		experiments.PrintFig11(os.Stdout, rows)
		return nil
	})
	adFig := func(servers int, includeOrdered bool, title string) func() error {
		return func() error {
			f, err := experiments.Fig12Or13Context(ctx, experiments.AdFigureConfig{
				Seed: *seed, AdServers: servers, EntriesPerServer: entries,
				Sleep: sleep, BatchSize: batch, IncludeOrdered: includeOrdered,
				Parallelism: parallelism,
			})
			if err != nil {
				return err
			}
			if title != "" {
				f.Title = title
			}
			experiments.PrintAdFigure(os.Stdout, f, 12)
			return nil
		}
	}
	run("12", adFig(5, true, ""))
	run("13", adFig(10, true, ""))
	run("14", adFig(10, false, "Seal-based strategies, 10 ad servers"))
}

// libraryParallelism validates the -parallel flag (0 = one worker per CPU,
// 1 = sequential) and translates it to the library's convention (0/1
// sequential, -1 one worker per CPU). A negative flag is a usage error, as
// in blazes verify: passed through, it would select one worker per CPU.
func libraryParallelism(flag int) (int, error) {
	switch {
	case flag < 0:
		return 0, errors.New("-parallel must be non-negative")
	case flag == 0:
		return -1, nil
	}
	return flag, nil
}
