// Command benchgate compares `go test -bench` output against a
// committed JSON baseline and fails on regressions — the CI
// bench-gate.
//
// Usage:
//
//	go test -bench . -benchmem -count=6 ./internal/p2p ./internal/proxy ./internal/soap > bench.txt
//	benchgate -baseline BENCH_gate.json -input bench.txt -out bench-current.json
//	benchgate -update BENCH_gate.json -input bench.txt   # refresh the baseline
//	benchgate -overload BENCH_overload.json              # validate the E12 knee
//	benchgate -follower BENCH_followers.json             # validate the E13 scaling
//	benchgate -gossip BENCH_gossip.json                  # validate the E14 dissemination bounds
//
// The gate fails (exit 1) when a benchmark's p95 ns/op or allocs/op
// grew more than -threshold (default 20%) over the baseline.
// Benchmarks new to either side are reported but do not fail the
// gate; refresh the baseline to adopt them.
//
// With -overload the gate instead validates a BENCH_overload.json
// report against E12's absolute acceptance bounds: protected goodput
// at the top multiplier at least 3 times the unprotected goodput,
// protected p99 within 2x of its 1x value, zero deadline-violating
// admitted requests and zero duplicate executions.
//
// With -follower the gate validates a BENCH_followers.json report
// against E13's bounds: follower-read goodput at the largest replica
// count at least 2.5 times the coordinator-only goodput, zero stale
// reads, the staleness invariant actually exercised, and reads spread
// across at least 2 distinct replicas.
//
// With -gossip the gate validates a BENCH_gossip.json report against
// E14's bounds: epidemic dissemination must use at least 10 times fewer
// messages than the flood baseline at every advertisement count, and
// the convergence sweep must stay within 2 × (1 + log2 n) rumor
// intervals — O(log n) rounds, not linear.
//
// The bounds themselves are the defaults of bench.OverloadBounds,
// bench.FollowerBounds and bench.GossipBounds.
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
		overload  = fs.String("overload", "", "validate this BENCH_overload.json against the E12 bounds instead of gating bench output")
		follower  = fs.String("follower", "", "validate this BENCH_followers.json against the E13 bounds instead of gating bench output")
		gossipRep = fs.String("gossip", "", "validate this BENCH_gossip.json against the E14 bounds instead of gating bench output")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The report gates: each checks one BENCH_*.json against its
	// experiment's default bounds, which holds spells out.
	for _, gate := range []struct {
		path  string
		label string
		check func(*bench.Report) []string
		holds string
	}{
		{*overload, "overload", func(r *bench.Report) []string { return bench.CheckOverload(r, bench.OverloadBounds{}) },
			"E12 bounds (goodput >=3.0x, p99 <=2.0x, 0 violations, 0 duplicates)"},
		{*follower, "follower", func(r *bench.Report) []string { return bench.CheckFollowers(r, bench.FollowerBounds{}) },
			"E13 bounds (scaling >=2.5x, 0 stale reads, spread >=2)"},
		{*gossipRep, "gossip", func(r *bench.Report) []string { return bench.CheckGossip(r, bench.GossipBounds{}) },
			"E14 bounds (ratio >=10.0x, convergence within 2.0x of O(log n) rounds)"},
	} {
		if gate.path == "" {
			continue
		}
		report, err := bench.LoadReport(gate.path)
		if err != nil {
			return err
		}
		findings := gate.check(report)
		if len(findings) > 0 {
			for _, f := range findings {
				fmt.Fprintf(stdout, "%s GATE %s\n", strings.ToUpper(gate.label), f)
			}
			return fmt.Errorf("%d %s-gate violation(s) in %s", len(findings), gate.label, gate.path)
		}
		fmt.Fprintf(stdout, "%s gate passed: %s holds the %s\n", gate.label, gate.path, gate.holds)
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
