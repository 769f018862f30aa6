// Command whisper-bench runs the Whisper experiment suite and prints
// the paper-style tables (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	whisper-bench                 # run every experiment
//	whisper-bench -exp figure4    # one experiment
//	whisper-bench -exp figure4 -peers 2,3,4,5,6,7,8,9 -window 2s
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"whisper/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "whisper-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	names := make([]string, len(bench.Experiments))
	for i, e := range bench.Experiments {
		names[i] = e.Name
	}
	fs := flag.NewFlagSet("whisper-bench", flag.ContinueOnError)
	var f bench.Flags
	var (
		exp     = fs.String("exp", "all", "experiment: all|"+strings.Join(names, "|"))
		peers   = fs.String("peers", "", "comma-separated peer counts for sweeps (experiment-specific default)")
		format  = fs.String("format", "table", "output format: table|csv")
		jsonDir = fs.String("json", "", "also write machine-readable BENCH_<exp>.json files into this directory")
	)
	fs.DurationVar(&f.Window, "window", 0, "measurement window for figure4/throughput")
	fs.IntVar(&f.Trials, "trials", 0, "trial count for failover/election")
	fs.Int64Var(&f.Seed, "seed", 1, "random seed")
	fs.BoolVar(&f.Trace, "trace", false, "for failover: record a distributed trace of the recovery request and print its span-tree breakdown")
	fs.DurationVar(&f.MTBF, "mtbf", 0, "for chaos: mean time between failures per replica (default 2s)")
	fs.DurationVar(&f.MTTR, "mttr", 0, "for chaos: mean time to repair a crashed replica (default 500ms)")
	fs.BoolVar(&f.NetFaults, "net-faults", false, "for chaos: also inject rolling partitions and link degradation (drops, duplication, corruption)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var err error
	if f.Peers, err = parseCounts(*peers); err != nil {
		return err
	}

	selected := bench.Experiments
	if *exp != "all" {
		i := slices.Index(names, *exp)
		if i < 0 {
			return fmt.Errorf("unknown experiment %q (want one of: all %s)", *exp, strings.Join(names, " "))
		}
		selected = selected[i : i+1]
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want table|csv)", *format)
	}
	if *jsonDir != "" {
		if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
			return fmt.Errorf("json dir: %w", err)
		}
	}
	// The experiments inherit the process root context; individual
	// phases derive their own timeouts from it.
	ctx := context.Background()
	for _, e := range selected {
		start := time.Now()
		report, err := e.Run(ctx, f)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.Name, err)
		}
		if *jsonDir != "" {
			path, err := report.WriteFile(*jsonDir)
			if err != nil {
				return fmt.Errorf("experiment %s: %w", e.Name, err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		if *format == "csv" {
			fmt.Print(report.Table().CSV())
			fmt.Println()
			continue
		}
		fmt.Println(report.Table().String())
		if report.Trailer != "" {
			fmt.Println(report.Trailer)
		}
		fmt.Printf("(%s completed in %v)\n\n", e.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func parseCounts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad peer count %q", p)
		}
		out = append(out, n)
	}
	return out, nil
}
