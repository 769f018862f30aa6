// Command benchgate compares `go test -bench` output against a
// committed JSON baseline and fails on regressions — the CI
// bench-gate.
//
// Usage:
//
//	go test -bench . -benchmem -count=6 <bench.GatePackages> > bench.txt
//	benchgate -baseline BENCH_gate.json -input bench.txt -out bench-current.json
//	benchgate -update BENCH_gate.json -input bench.txt   # refresh the baseline
//	benchgate -report BENCH_overload.json                # hold a report to its own bounds
//
// The gate fails (exit 1) when a benchmark's p95 ns/op or allocs/op
// grew more than -threshold (default 20%) over the baseline.
// Benchmarks new to either side are reported but do not fail the
// gate; refresh the baseline to adopt them.
//
// With -report the gate instead validates one BENCH_<exp>.json written
// by `whisper-bench -json`: the experiment emits its acceptance bounds
// as rows of the report (E12's goodput knee, E13's read scaling and
// zero stale reads, E14's message ratio and O(log n) rounds — see
// EXPERIMENTS.md) and bench.Report.CheckBounds evaluates every row
// against the report's own metrics. A report without rows fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"whisper/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	var (
		baseline  = fs.String("baseline", "BENCH_gate.json", "committed baseline to compare against")
		input     = fs.String("input", "-", "go test -bench output file (- for stdin)")
		out       = fs.String("out", "", "write the current aggregates as JSON (CI artifact)")
		update    = fs.String("update", "", "write a fresh baseline to this path instead of comparing")
		threshold = fs.Float64("threshold", 0.20, "fractional regression threshold on p95 ns/op and allocs/op")
		report    = fs.String("report", "", "hold this BENCH_<exp>.json to the bounds it carries instead of gating bench output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *report != "" {
		r, err := bench.LoadReport(*report)
		if err != nil {
			return err
		}
		findings := r.CheckBounds()
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s GATE %s\n", strings.ToUpper(r.Experiment), f)
		}
		if len(findings) > 0 {
			return fmt.Errorf("%d %s-gate violation(s) in %s", len(findings), r.Experiment, *report)
		}
		fmt.Fprintf(stdout, "%s gate passed: %s holds its %d bounds\n", r.Experiment, *report, len(r.Bounds))
		return nil
	}

	in := os.Stdin
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		in = f
	}
	samples, err := bench.ParseBenchOutput(in)
	if err != nil {
		return err
	}
	current := bench.AggregateSamples(samples)
	if len(current) == 0 {
		return fmt.Errorf("no benchmark results found in input")
	}
	fmt.Fprintf(stdout, "parsed %d benchmarks\n", len(current))

	if *out != "" {
		data, merr := json.MarshalIndent(map[string]any{"benchmarks": current}, "", "  ")
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(*out, append(data, '\n'), 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "wrote current aggregates to %s\n", *out)
	}

	if *update != "" {
		if werr := bench.WriteGateBaseline(*update, current); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "baseline updated: %s\n", *update)
		return nil
	}

	base, err := bench.LoadGateBaseline(*baseline)
	if err != nil {
		return err
	}
	regs, missing, fresh := bench.CompareToBaseline(base.Benchmarks, current, *threshold)
	for _, name := range missing {
		fmt.Fprintf(stdout, "warning: baseline benchmark missing from run: %s\n", name)
	}
	for _, name := range fresh {
		fmt.Fprintf(stdout, "note: new benchmark not in baseline: %s\n", name)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(stdout, "REGRESSION %s\n", r)
		}
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%%", len(regs), *threshold*100)
	}
	fmt.Fprintf(stdout, "gate passed: no regression beyond %.0f%% against %s\n", *threshold*100, *baseline)
	return nil
}
