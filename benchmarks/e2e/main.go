// Command e2e is Whisper's end-to-end benchmark: four workloads, eight
// end-to-end metrics and a per-layer account of one SOAP request
// travelling client → soap → core.Service → proxy → p2p → bpeer/replog
// and back. See README.md beside this file.
//
//	e2e -workload journal_lan -seed 1 -seconds 30 -trace 0   one run, JSON on the last line
//	e2e -layers                                              traced run of every workload + budget
//	e2e -selfcheck                                           repeatability of every metric against its bound
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times an untraced run sets the system up;
// setup_s is the median, the last deployment is the one measured.
const setupRepeats = 3

// runDeadline aborts a single run that has stopped making progress.
const runDeadline = 170 * time.Second

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed      = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Int("seconds", 0, "length of the measured window (default 30; 10 with -layers)")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		layers    = flag.Bool("layers", false, "traced run of every workload (or -workload), per-layer table and budget")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on one seed and once on another; compare against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	if *seed == 0 {
		fatalf("-seed must be non-zero (core treats seed 0 as 'random IDs')")
	}
	switch {
	case *seconds < 0:
		fatalf("-seconds must be at least 1")
	case *seconds == 0 && *layers:
		*seconds = 10
	case *seconds == 0:
		*seconds = 30
	}
	window := time.Duration(*seconds) * time.Second

	switch {
	case *selfcheck:
		os.Exit(runSelfcheck(*seed, window))
	case *layers:
		os.Exit(runLayers(*name, *seed, window))
	}

	w := findWorkload(*name)
	if w == nil {
		fatalf("unknown -workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	// The contract allows a run 180 s; a deployment that stops answering
	// must not turn into a hang.
	time.AfterFunc(runDeadline, func() { fatalf("%s seed %d: run exceeded %s", w.name, *seed, runDeadline) })
	var (
		res *runResult
		err error
	)
	if *trace == 1 {
		var run *tracedRun
		if run, err = runTraced(w, *seed, window); err == nil {
			res = run.result
		}
	} else {
		res, err = runUntraced(w, *seed, window)
	}
	if err != nil {
		fatalf("%s seed %d: %v", w.name, *seed, err)
	}
	res.print(os.Stdout)
	fmt.Println(res.jsonLine())
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(1)
}

// runResult is what one run reports.
type runResult struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	metrics   []metric
	// notes are human-readable lines (sample counts, oracle tallies).
	notes []string
}

func (r *runResult) value(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

func (r *runResult) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s  seed %d  attempted %d  failed %d\n", r.workload, r.seed, r.attempted, r.failed)
	for _, m := range r.metrics {
		fmt.Fprintf(out, "  %-40s %14.4f %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
}

// jsonLine renders the contract's result object.
func (r *runResult) jsonLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: true, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]mv{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = mv{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	return string(b)
}

// runUntraced is the end-to-end run: set up setupRepeats times (timing
// each), measure one window on the last deployment, check every reply
// and the oracle.
func runUntraced(w *workload, seed int64, window time.Duration) (*runResult, error) {
	res := &runResult{workload: w.name, seed: seed}
	if w.tcp {
		tw, waited := waitTimeWait()
		res.notes = append(res.notes, fmt.Sprintf("TIME_WAIT sockets at start %d (waited %s)", tw, waited.Round(time.Millisecond)))
	}
	var (
		e       *env
		setups  []float64
		retries int
	)
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		var (
			s   float64
			r   int
			err error
		)
		e, s, r, err = setupTimed(func() (*env, error) { return w.setup(seed, false) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, s)
		retries += r
	}
	defer e.close()

	var dials0 int64
	if w.tcp {
		dials0 = tcpActiveOpens()
	}
	win, err := measure(w, e, seed, window)
	if err != nil {
		return nil, err
	}
	if w.tcp {
		if err := checkDialBudget(tcpActiveOpens()-dials0, win); err != nil {
			return nil, err
		}
	}
	for _, f := range e.failures {
		res.notes = append(res.notes, "failed "+f)
	}
	if crashes := win.res.crashes; len(crashes) > 0 {
		var outages, detects []string
		for _, c := range crashes {
			outages = append(outages, fmt.Sprint(c.outage.Milliseconds()))
			detects = append(detects, fmt.Sprint(c.detect.Milliseconds()))
		}
		res.notes = append(res.notes,
			"outage per crash (ms): "+strings.Join(outages, " "),
			"successor named after (ms, 0 = not before the restart): "+strings.Join(detects, " "))
	}
	load := win.res.load
	res.attempted = load.attempted
	res.failed = load.attempted - load.correct
	res.metrics = win.endToEndMetrics(medianOf(setups))
	_, beyond := load.latencyMS.percentile(90)
	if beyond < 60 {
		fmt.Fprintf(os.Stderr, "e2e: warning: only %d samples beyond p90; a 30 s window leaves at least 60\n", beyond)
	}
	sort.Float64s(setups)
	res.notes = append(res.notes,
		fmt.Sprintf("%d latency samples, %d beyond p90", load.latencyMS.count(), beyond),
		fmt.Sprintf("set-up times %v s, %d wedged attempts retried", setups, retries),
	)
	return res, nil
}
