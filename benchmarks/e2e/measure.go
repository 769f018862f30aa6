package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"whisper/internal/simnet"
)

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// metricSpec describes an end-to-end metric and its regression bound.
type metricSpec struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd lists the eight user-visible metrics, the same on every
// workload. bound is the share by which the median may worsen before a
// change is a regression (BENCHMARK.json repeats it for the driver).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.15},
	{"latency_p90_ms", "ms", "lower", 0.15},
	{"throughput_rps", "1/s", "higher", 0.15},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_kb_per_op", "kB", "lower", 0.05},
	{"msgs_per_op", "count", "lower", 0.04},
	{"wire_kb_per_op", "kB", "lower", 0.03},
}

// counters is a point-in-time reading of everything measured as a
// delta over the window.
type counters struct {
	mallocs    uint64
	totalAlloc uint64
	gcCycles   uint32
	heapAlloc  uint64
	cpu        time.Duration
	wire       map[string]simnet.ProtoStats
}

func readCounters(e *env) counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // informational; a failure leaves cpu at 0
	return counters{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		gcCycles:   ms.NumGC,
		heapAlloc:  ms.HeapAlloc,
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		wire:       e.wire(),
	}
}

// wireTotal sums messages and bytes over every protocol tag.
func wireTotal(w map[string]simnet.ProtoStats) (msgs, bytes int64) {
	for _, ps := range w {
		msgs += ps.Messages
		bytes += ps.Bytes
	}
	return msgs, bytes
}

// window is one measured drive with its counter deltas.
type window struct {
	res           *driveResult
	before, after counters
}

// measure drives the workload for the window between two counter reads
// and applies the run-level correctness rules to what it saw.
func measure(w *workload, e *env, seed int64, d time.Duration) (*window, error) {
	runtime.GC() // start every window from a collected heap
	before := readCounters(e)
	res, err := w.drive(e, seed, d)
	if err != nil {
		return nil, err
	}
	win := &window{res: res, before: before, after: readCounters(e)}
	return win, checkWindow(w, e, win)
}

func (w *window) ops() float64 { return float64(w.res.load.attempted) }

// endToEndMetrics computes the eight end-to-end metrics of one window.
func (w *window) endToEndMetrics(setupS float64) []metric {
	load := w.res.load
	p50, _ := load.latencyMS.percentile(50)
	p90, _ := load.latencyMS.percentile(90)
	m0, b0 := wireTotal(w.before.wire)
	m1, b1 := wireTotal(w.after.wire)
	ops := w.ops()
	return []metric{
		{"setup_s", setupS, "s"},
		{"latency_p50_ms", p50, "ms"},
		{"latency_p90_ms", p90, "ms"},
		{"throughput_rps", ratio(float64(load.correct), load.elapsed.Seconds()), "1/s"},
		{"allocs_per_op", ratio(float64(w.after.mallocs-w.before.mallocs), ops), "count"},
		{"alloc_kb_per_op", ratio(float64(w.after.totalAlloc-w.before.totalAlloc)/1000, ops), "kB"},
		{"msgs_per_op", ratio(float64(m1-m0), ops), "count"},
		{"wire_kb_per_op", ratio(float64(b1-b0)/1000, ops), "kB"},
	}
}

// checkWindow applies the run-level correctness rules: the oracle saw
// no duplicate execution, lost ack or stale read, and (on workloads
// that inject no fault) no operation failed.
func checkWindow(w *workload, e *env, win *window) error {
	if v := e.oracle.verdict(); !v.ok() {
		return fmt.Errorf("oracle: %d duplicate executions, %d acked writes never executed, %d stale reads",
			v.duplicates, v.lost, v.stale)
	}
	load := win.res.load
	if failed := load.attempted - load.correct; failed > 0 && w.name != "failover_lan" {
		return fmt.Errorf("%d of %d operations failed on a fault-free workload", failed, load.attempted)
	}
	return nil
}
