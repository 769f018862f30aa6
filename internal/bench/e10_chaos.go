package bench

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/core"
	"whisper/internal/metrics"
)

// ChaosOptions configures experiment E10: client-visible availability
// under sustained crash–restart churn, measured against the paper's
// static-redundancy prediction A = 1 − U^n with per-replica
// unavailability U = MTTR/(MTBF+MTTR).
type ChaosOptions struct {
	// GroupSizes are the replica counts to sweep (default 1,2,3).
	GroupSizes []int
	// MTBF is the mean time between failures per replica (default 2s).
	MTBF time.Duration
	// MTTR is the mean time to repair (default 500ms).
	MTTR time.Duration
	// Window is the measurement window per group size (default 8s).
	Window time.Duration
	// Pacing is the client's inter-request gap (default 20ms).
	Pacing time.Duration
	// NetFaults additionally enables rolling partitions and transient
	// link degradation (drops, duplication, corruption) between the
	// replicas.
	NetFaults bool
	// Seed drives the fault sequence and all other randomness.
	Seed int64
}

func (o *ChaosOptions) applyDefaults() {
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{1, 2, 3}
	}
	if o.MTBF <= 0 {
		o.MTBF = 2 * time.Second
	}
	if o.MTTR <= 0 {
		o.MTTR = 500 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 8 * time.Second
	}
	if o.Pacing <= 0 {
		o.Pacing = 20 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ChaosResult is the outcome for one group size.
type ChaosResult struct {
	Peers     int
	Crashes   int64
	Restarts  int64
	Requests  int
	Errors    int
	Measured  float64 // acked / (acked+failed)
	Predicted float64 // 1 − U^n
	Latency   *metrics.Histogram
	// Violations are invariant-checker findings (empty on a clean run).
	Violations []string
	// Health is the proxy's resilience counter snapshot (breaker
	// transitions, backoff sleeps, attempts).
	Health map[string]int64
}

// GroupTargets adapts a deployed group's replicas to chaos targets
// driven through Group.CrashPeer / Group.RestartPeer.
func GroupTargets(g *core.Group) []chaos.Target {
	var out []chaos.Target
	for _, bp := range g.Peers() {
		out = append(out, &groupTarget{g: g, name: bp.Name(), addr: bp.Addr()})
	}
	return out
}

type groupTarget struct {
	g    *core.Group
	name string
	addr string
}

func (t *groupTarget) Name() string { return t.name }
func (t *groupTarget) Addr() string { return t.addr }

func (t *groupTarget) Running() bool {
	for _, bp := range t.g.Peers() {
		if bp.Name() == t.name {
			return bp.Running()
		}
	}
	return false
}

func (t *groupTarget) Crash() error { return t.g.CrashPeer(t.name) }

func (t *groupTarget) Restart(ctx context.Context) error { return t.g.RestartPeer(ctx, t.name) }

// GroupView snapshots the group's coordinator beliefs for the
// invariant checker's convergence test.
func GroupView(g *core.Group) chaos.CoordView {
	v := chaos.CoordView{
		Coordinators: make(map[string]string),
		Addrs:        make(map[string]string),
	}
	for _, bp := range g.RunningPeers() {
		v.Coordinators[bp.Name()] = bp.Coordinator()
		v.Addrs[bp.Name()] = bp.Addr()
	}
	return v
}

// Chaos runs E10 and returns the availability-vs-prediction table.
func Chaos(ctx context.Context, opts ChaosOptions) (*Table, []ChaosResult, error) {
	opts.applyDefaults()
	var results []ChaosResult
	for _, n := range opts.GroupSizes {
		res, err := chaosRun(ctx, opts, n)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: chaos n=%d: %w", n, err)
		}
		results = append(results, res)
	}

	u := unavailability(opts.MTBF, opts.MTTR)
	t := &Table{
		Title: fmt.Sprintf("Availability under sustained churn (MTBF %v, MTTR %v, %v window, seed %d)",
			opts.MTBF, opts.MTTR, opts.Window, opts.Seed),
		Columns: []string{"peers", "crashes", "restarts", "requests", "errors", "measured A", "predicted 1-U^n", "p95"},
	}
	for _, r := range results {
		t.AddRow(fmt.Sprintf("%d", r.Peers),
			fmt.Sprintf("%d", r.Crashes),
			fmt.Sprintf("%d", r.Restarts),
			fmt.Sprintf("%d", r.Requests),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%.4f", r.Measured),
			fmt.Sprintf("%.4f", r.Predicted),
			r.Latency.Percentile(95).String())
	}
	t.AddNote(fmt.Sprintf("per-replica unavailability U = MTTR/(MTBF+MTTR) = %.3f; the paper's static-redundancy prediction is A = 1-U^n (single peer: %.3f)",
		u, 1-u))
	for _, r := range results {
		if len(r.Violations) > 0 {
			t.AddNote(fmt.Sprintf("n=%d INVARIANT VIOLATIONS: %s", r.Peers, strings.Join(r.Violations, "; ")))
		}
	}
	if len(results) > 0 {
		last := results[len(results)-1]
		t.AddNote(fmt.Sprintf("proxy resilience (n=%d): attempts=%d backoff-sleeps=%d breaker opened=%d half-open=%d closed=%d rejected=%d",
			last.Peers, last.Health["calls.attempted"], last.Health["backoff.sleeps"],
			last.Health["breaker.opened"], last.Health["breaker.half_open"],
			last.Health["breaker.closed"], last.Health["breaker.rejected"]))
	}
	return t, results, nil
}

func unavailability(mtbf, mttr time.Duration) float64 {
	return float64(mttr) / float64(mtbf+mttr)
}

func chaosRun(ctx context.Context, opts ChaosOptions, peers int) (ChaosResult, error) {
	c, err := NewCluster(ctx, ClusterOptions{Peers: peers, Seed: opts.Seed})
	if err != nil {
		return ChaosResult{}, err
	}
	defer func() { _ = c.Close() }()

	res := ChaosResult{
		Peers:     peers,
		Latency:   metrics.NewHistogram(),
		Predicted: 1 - math.Pow(unavailability(opts.MTBF, opts.MTTR), float64(peers)),
	}

	warmCtx, warmCancel := context.WithTimeout(ctx, 30*time.Second)
	_, err = c.Invoke(warmCtx, c.StudentID(0))
	warmCancel()
	if err != nil {
		return ChaosResult{}, fmt.Errorf("warm-up: %w", err)
	}

	cfg := chaos.Config{
		Seed:     opts.Seed,
		MTBF:     opts.MTBF,
		MTTR:     opts.MTTR,
		MinAlive: -1, // a true availability measurement lets the last replica die too
	}
	if opts.NetFaults {
		cfg.Network = c.Net
		cfg.PartitionMTBF = 4 * opts.MTBF
		cfg.PartitionMTTR = opts.MTTR
		cfg.DegradeMTBF = 2 * opts.MTBF
		cfg.DegradeMTTR = opts.MTTR
		cfg.DegradeDelay = 5 * time.Millisecond
		cfg.DropRate = 0.05
		cfg.DupRate = 0.05
		cfg.CorruptRate = 0.02
	}
	eng := chaos.New(cfg, GroupTargets(c.Group)...)

	runCtx, stopChaos := context.WithCancel(ctx)
	chaosDone := make(chan struct{})
	go func() { eng.Run(runCtx); close(chaosDone) }()

	check := chaos.NewChecker()
	deadline := time.Now().Add(opts.Window)
	// A request that cannot be served within the timeout counts as
	// unavailable — retries mask shorter outages, which is exactly the
	// transparency the architecture claims.
	callTimeout := time.Second
	const grace = time.Second
	for i := 0; time.Now().Before(deadline); i++ {
		id := c.StudentID(i)
		callCtx, cancel := context.WithTimeout(ctx, callTimeout)
		start := time.Now()
		body, err := c.Invoke(callCtx, id)
		took := time.Since(start)
		cancel()
		res.Latency.Observe(took)
		res.Requests++
		if took > callTimeout+grace {
			check.RecordOverdue(id, took, callTimeout+grace)
		}
		if err != nil {
			check.RecordFailure(id)
			res.Errors++
		} else {
			want := "<ID>" + id + "</ID>"
			got := want
			if !strings.Contains(string(body), want) {
				got = string(body)
			}
			check.RecordResponse(id, got, want)
		}
		time.Sleep(opts.Pacing)
	}

	stopChaos()
	<-chaosDone
	quiesceCtx, qCancel := context.WithTimeout(ctx, 30*time.Second)
	defer qCancel()
	if err := eng.Quiesce(quiesceCtx); err != nil {
		check.Violationf("quiesce failed: %v", err)
	}
	convCtx, cCancel := context.WithTimeout(ctx, 10*time.Second)
	defer cCancel()
	_ = check.WaitSingleCoordinator(convCtx, func() chaos.CoordView { return GroupView(c.Group) })

	counts := eng.Counts()
	res.Crashes = counts.Get("crash")
	res.Restarts = counts.Get("restart")
	res.Measured = check.Availability()
	res.Violations = check.Violations()
	res.Health = c.Service.Proxy().Health().Snapshot()
	return res, nil
}

func runChaos(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := Chaos(ctx, ChaosOptions{
		GroupSizes: f.Peers, MTBF: f.MTBF, MTTR: f.MTTR,
		Window: f.Window, NetFaults: f.NetFaults, Seed: f.Seed,
	})
	if err != nil {
		return nil, err
	}
	r := NewReport("chaos", t)
	for _, p := range res {
		key := fmt.Sprintf("%dpeers", p.Peers)
		r.AddHistogram(key+".latency", p.Latency)
		r.AddScalar(key+".measured_availability", "ratio", p.Measured)
		r.AddScalar(key+".predicted_availability", "ratio", p.Predicted)
		r.AddScalar(key+".crashes", "count", float64(p.Crashes))
	}
	return r, nil
}
