package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: whisper/internal/p2p
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkDiscoveryLocalQuery-8   	 4523342	       265.1 ns/op	      40 B/op	       2 allocs/op
BenchmarkDiscoveryLocalQuery-8   	 4498210	       270.4 ns/op	      40 B/op	       2 allocs/op
BenchmarkDiscoveryLocalQuery-8   	 4551102	       262.9 ns/op	      40 B/op	       2 allocs/op
PASS
ok  	whisper/internal/p2p	5.1s
pkg: whisper/internal/soap
BenchmarkEncodeFault-8           	 2725090	       432.9 ns/op	     344 B/op	       4 allocs/op
PASS
ok  	whisper/internal/soap	1.2s
`

func TestParseBenchOutput(t *testing.T) {
	samples, err := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	q := samples["whisper/internal/p2p.BenchmarkDiscoveryLocalQuery"]
	if len(q) != 3 {
		t.Fatalf("query samples = %d, want 3", len(q))
	}
	if q[1].nsPerOp != 270.4 || q[1].bytesPerOp != 40 || q[1].allocsPerOp != 2 {
		t.Errorf("sample = %+v", q[1])
	}
	f := samples["whisper/internal/soap.BenchmarkEncodeFault"]
	if len(f) != 1 || f[0].allocsPerOp != 4 {
		t.Errorf("fault samples = %+v", f)
	}
}

func TestAggregateSamples(t *testing.T) {
	samples, _ := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	agg := AggregateSamples(samples)
	q := agg["whisper/internal/p2p.BenchmarkDiscoveryLocalQuery"]
	if q.Samples != 3 {
		t.Fatalf("samples = %d, want 3", q.Samples)
	}
	if q.NsPerOp != 265.1 {
		t.Errorf("median ns/op = %v, want 265.1", q.NsPerOp)
	}
	if q.P95NsPerOp != 270.4 {
		t.Errorf("p95 ns/op = %v, want 270.4 (nearest-rank max of 3)", q.P95NsPerOp)
	}
	if q.AllocsPerOp != 2 {
		t.Errorf("allocs/op = %v, want 2", q.AllocsPerOp)
	}
}

func TestCompareToBaseline(t *testing.T) {
	base := map[string]GateBenchmark{
		"a":    {Name: "a", P95NsPerOp: 100, AllocsPerOp: 10},
		"b":    {Name: "b", P95NsPerOp: 100, AllocsPerOp: 10},
		"c":    {Name: "c", P95NsPerOp: 100, AllocsPerOp: 2},
		"gone": {Name: "gone", P95NsPerOp: 1, AllocsPerOp: 1},
	}
	cur := map[string]GateBenchmark{
		"a":   {Name: "a", P95NsPerOp: 115, AllocsPerOp: 10},  // within 20%
		"b":   {Name: "b", P95NsPerOp: 130, AllocsPerOp: 13},  // both regressed
		"c":   {Name: "c", P95NsPerOp: 100, AllocsPerOp: 2.4}, // +20% but <1 alloc
		"new": {Name: "new", P95NsPerOp: 5, AllocsPerOp: 1},
	}
	regs, missing, fresh := CompareToBaseline(base, cur, 0.20)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2 on b", regs)
	}
	for _, r := range regs {
		if r.Benchmark != "b" {
			t.Errorf("unexpected regression %v", r)
		}
	}
	if len(missing) != 1 || missing[0] != "gone" {
		t.Errorf("missing = %v", missing)
	}
	if len(fresh) != 1 || fresh[0] != "new" {
		t.Errorf("fresh = %v", fresh)
	}
}

func TestGateBaselineRoundTrip(t *testing.T) {
	samples, _ := ParseBenchOutput(strings.NewReader(sampleBenchOutput))
	agg := AggregateSamples(samples)
	path := filepath.Join(t.TempDir(), "BENCH_gate.json")
	if err := WriteGateBaseline(path, agg); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadGateBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	regs, missing, fresh := CompareToBaseline(loaded.Benchmarks, agg, 0.20)
	if len(regs)+len(missing)+len(fresh) != 0 {
		t.Errorf("self-comparison not clean: regs=%v missing=%v fresh=%v", regs, missing, fresh)
	}
	// The regenerate note must name the packages the CI bench-gate job
	// runs, or following it drops benchmarks from the baseline.
	if !strings.Contains(loaded.Note, "-count=6 "+GatePackages+" | go run ./cmd/benchgate -update") {
		t.Errorf("regenerate note does not run GatePackages: %q", loaded.Note)
	}
	ci, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ci), GatePackages+" | tee bench-output.txt") {
		t.Errorf("ci.yml's bench-gate job does not run GatePackages (%s)", GatePackages)
	}
}

func TestReportWriteFile(t *testing.T) {
	tab := &Table{Title: "E2", Columns: []string{"path", "p50"}}
	tab.AddRow("transport", "1ms")
	r := NewReport("rtt", tab)
	r.AddScalar("throughput", "req/s", 123.4)
	dir := t.TempDir()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_rtt.json" {
		t.Errorf("path = %s", path)
	}
	loaded, err := LoadGateBaseline(path) // wrong schema must still be JSON
	if err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	_ = loaded
}
