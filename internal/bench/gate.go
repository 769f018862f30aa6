package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file implements the bench-gate: parsing `go test -bench
// -benchmem -count=N` output, aggregating the repeated samples
// benchstat-style, and comparing the aggregate against a committed
// JSON baseline with regression thresholds. cmd/benchgate is the thin
// CLI over it; the CI bench-gate job fails the build on regressions.

// GateBenchmark is the aggregated result of one benchmark across its
// -count samples.
type GateBenchmark struct {
	// Name is "import/path.BenchmarkFoo" (CPU suffix stripped).
	Name string `json:"name"`
	// Samples is how many -count runs were aggregated.
	Samples int `json:"samples"`
	// NsPerOp is the median ns/op across samples — the stable center
	// benchstat would report.
	NsPerOp float64 `json:"ns_per_op"`
	// P95NsPerOp is the 95th-percentile ns/op across samples — the
	// tail the gate thresholds, so a benchmark that got noisy (not
	// just slower on average) also trips.
	P95NsPerOp float64 `json:"p95_ns_per_op"`
	// BytesPerOp is the median B/op (-benchmem).
	BytesPerOp float64 `json:"bytes_per_op"`
	// AllocsPerOp is the median allocs/op (-benchmem) — machine
	// independent, so the tightest regression signal the gate has.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// GateBaseline is the committed BENCH_gate.json schema.
type GateBaseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note,omitempty"`
	// Benchmarks maps benchmark name to its aggregate.
	Benchmarks map[string]GateBenchmark `json:"benchmarks"`
}

// benchSample is one parsed benchmark result line.
type benchSample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
}

// ParseBenchOutput parses `go test -bench` text: "pkg:" lines
// attribute the following benchmark lines to their package, and each
// "BenchmarkX-N  iter  ns/op [B/op allocs/op]" line becomes a sample
// under "pkg.BenchmarkX". Unrecognized lines are skipped, so the full
// test output can be piped in unfiltered.
func ParseBenchOutput(r io.Reader) (map[string][]benchSample, error) {
	out := make(map[string][]benchSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Minimum shape: name, iterations, value, "ns/op".
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			// Strip the GOMAXPROCS suffix ("-8").
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		if pkg != "" {
			name = pkg + "." + name
		}
		var s benchSample
		seenNs := false
		// Scan value/unit pairs after the iteration count.
		for i := 3; i < len(fields); i++ {
			val, err := strconv.ParseFloat(fields[i-1], 64)
			if err != nil {
				continue
			}
			switch fields[i] {
			case "ns/op":
				s.nsPerOp = val
				seenNs = true
			case "B/op":
				s.bytesPerOp = val
			case "allocs/op":
				s.allocsPerOp = val
			}
		}
		if !seenNs {
			continue
		}
		out[name] = append(out[name], s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: scan output: %w", err)
	}
	return out, nil
}

// AggregateSamples folds -count repetitions into one GateBenchmark
// per benchmark: median for centers, nearest-rank p95 for the time
// tail.
func AggregateSamples(samples map[string][]benchSample) map[string]GateBenchmark {
	out := make(map[string]GateBenchmark, len(samples))
	for name, ss := range samples {
		if len(ss) == 0 {
			continue
		}
		ns := make([]float64, len(ss))
		bs := make([]float64, len(ss))
		as := make([]float64, len(ss))
		for i, s := range ss {
			ns[i], bs[i], as[i] = s.nsPerOp, s.bytesPerOp, s.allocsPerOp
		}
		out[name] = GateBenchmark{
			Name:        name,
			Samples:     len(ss),
			NsPerOp:     median(ns),
			P95NsPerOp:  percentileNearestRank(ns, 95),
			BytesPerOp:  median(bs),
			AllocsPerOp: median(as),
		}
	}
	return out
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func percentileNearestRank(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// Regression is one gate finding.
type Regression struct {
	// Benchmark names the offender.
	Benchmark string `json:"benchmark"`
	// Metric is "p95_ns_per_op" or "allocs_per_op".
	Metric string `json:"metric"`
	// Baseline and Current are the compared values.
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Ratio is Current/Baseline.
	Ratio float64 `json:"ratio"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %.6g -> %.6g (%.2fx)",
		r.Benchmark, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// CompareToBaseline checks current aggregates against the baseline
// with the given fractional threshold (0.20 = fail on >20% growth of
// p95 ns/op or allocs/op). Benchmarks absent from either side are
// returned in missing/fresh, not failed — new benchmarks must be
// committable, and renames must not brick CI — but the lists are
// surfaced so the baseline can be refreshed deliberately.
func CompareToBaseline(baseline, current map[string]GateBenchmark, threshold float64) (regs []Regression, missing, fresh []string) {
	for name, base := range baseline {
		cur, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if base.P95NsPerOp > 0 && cur.P95NsPerOp > base.P95NsPerOp*(1+threshold) {
			regs = append(regs, Regression{
				Benchmark: name,
				Metric:    "p95_ns_per_op",
				Baseline:  base.P95NsPerOp,
				Current:   cur.P95NsPerOp,
				Ratio:     cur.P95NsPerOp / base.P95NsPerOp,
			})
		}
		// Allocation regressions also need at least one whole extra
		// alloc/op: 20% of a 2-alloc benchmark is less than one
		// allocation, which cannot regress fractionally.
		if cur.AllocsPerOp > base.AllocsPerOp*(1+threshold) && cur.AllocsPerOp-base.AllocsPerOp >= 1 {
			regs = append(regs, Regression{
				Benchmark: name,
				Metric:    "allocs_per_op",
				Baseline:  base.AllocsPerOp,
				Current:   cur.AllocsPerOp,
				Ratio:     cur.AllocsPerOp / math.Max(base.AllocsPerOp, 1),
			})
		}
	}
	for name := range current {
		if _, ok := baseline[name]; !ok {
			fresh = append(fresh, name)
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Benchmark != regs[j].Benchmark {
			return regs[i].Benchmark < regs[j].Benchmark
		}
		return regs[i].Metric < regs[j].Metric
	})
	sort.Strings(missing)
	sort.Strings(fresh)
	return regs, missing, fresh
}

// LoadGateBaseline reads a committed BENCH_gate.json.
func LoadGateBaseline(path string) (*GateBaseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read baseline: %w", err)
	}
	var b GateBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("bench: parse baseline %s: %w", path, err)
	}
	if b.Benchmarks == nil {
		b.Benchmarks = make(map[string]GateBenchmark)
	}
	return &b, nil
}

// GatePackages are the packages whose benchmarks the baseline covers.
// The CI bench-gate job runs exactly this list (TestGateBaselineRoundTrip
// holds ci.yml to it): a regenerate note that named fewer would drop the
// missing packages' benchmarks from the next baseline.
const GatePackages = "./internal/p2p ./internal/proxy ./internal/soap ./internal/replog ./internal/gossip ./internal/bpeer"

// WriteGateBaseline writes the aggregates as a fresh baseline file.
func WriteGateBaseline(path string, benchmarks map[string]GateBenchmark) error {
	b := GateBaseline{
		Note:       "regenerate with: go test -bench . -benchmem -count=6 " + GatePackages + " | go run ./cmd/benchgate -update " + path,
		Benchmarks: benchmarks,
	}
	data, err := json.MarshalIndent(&b, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: marshal baseline: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write baseline: %w", err)
	}
	return nil
}
