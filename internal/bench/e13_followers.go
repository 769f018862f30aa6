package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/core"
	"whisper/internal/metrics"
	"whisper/internal/proxy"
	"whisper/internal/replog"
)

// FollowersOptions configures experiment E13: read goodput scaling with
// follower read serving. The baseline sends every read through the
// coordinator (the pre-E13 behaviour); the follower configurations mark
// the read operation in ReadOnlyOps so any replica serves it behind the
// read-index barrier and the proxy spreads reads QoS-weighted across
// the group. The headline is the goodput ratio at the full replica
// count: followers.<N>.goodput / coordinator.goodput.
type FollowersOptions struct {
	// ReplicaCounts are the follower-read group sizes swept
	// (default 1, 2, 3).
	ReplicaCounts []int
	// BaselineReplicas is the coordinator-only group size
	// (default: the largest swept count, so the comparison isolates
	// WHERE reads execute, not how many replicas exist).
	BaselineReplicas int
	// Workers is each replica's concurrent backend capacity
	// (default 2).
	Workers int
	// ServiceTime is the per-read backend work (default 5ms).
	ServiceTime time.Duration
	// Window is the measured closed-loop window per point
	// (default 1.5s).
	Window time.Duration
	// Clients is the number of closed-loop reader goroutines; <=0
	// sizes it to saturate the largest configuration
	// (2 × Workers × max replicas).
	Clients int
	// WriteEvery is the background keyed-write interval that keeps the
	// journal advancing while reads run, so the read-index barrier is
	// exercised rather than trivially satisfied (default 20ms).
	WriteEvery time.Duration
	// Seed drives the simulated network and replica selection.
	Seed int64
}

func (o *FollowersOptions) applyDefaults() {
	if len(o.ReplicaCounts) == 0 {
		o.ReplicaCounts = []int{1, 2, 3}
	}
	if o.BaselineReplicas <= 0 {
		o.BaselineReplicas = o.ReplicaCounts[len(o.ReplicaCounts)-1]
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 5 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 1500 * time.Millisecond
	}
	if o.Clients <= 0 {
		maxReplicas := 0
		for _, n := range o.ReplicaCounts {
			if n > maxReplicas {
				maxReplicas = n
			}
		}
		if o.BaselineReplicas > maxReplicas {
			maxReplicas = o.BaselineReplicas
		}
		o.Clients = 2 * o.Workers * maxReplicas
	}
	if o.WriteEvery <= 0 {
		o.WriteEvery = 20 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// FollowersPoint is one configuration's measurement.
type FollowersPoint struct {
	// Config is "coordinator" (reads unmarked, coordinator-served) or
	// "followers" (reads marked, replica-balanced).
	Config string
	// Replicas is the group size.
	Replicas int
	// Reads / Errors / Writes tally the window's traffic.
	Reads  int
	Errors int
	Writes int
	// Goodput is successful reads per second.
	Goodput float64
	// P50/P99 are read latency percentiles.
	P50, P99 time.Duration
	// Spread is how many distinct replicas served reads.
	Spread int
	// Checked / Stale are the staleness-invariant tallies from the
	// chaos checker (zero Checked on the coordinator baseline — the
	// observer only fires on follower-served reads).
	Checked int64
	Stale   int64
}

// FollowersResult is the full E13 sweep.
type FollowersResult struct {
	Baseline FollowersPoint
	Points   []FollowersPoint
	// Scaling is the headline ratio: follower goodput at the largest
	// replica count over coordinator-only goodput.
	Scaling float64
}

// followersCluster is one deployment under test.
type followersCluster struct {
	*TestBed
	group   *core.Group
	proxy   *proxy.SWSProxy
	checker *chaos.Checker
}

func (c *followersCluster) invoke(ctx context.Context, op string, payload []byte) ([]byte, error) {
	return c.proxy.Invoke(ctx, StudentSignature(), op, payload)
}

// newFollowersCluster deploys one configuration: a journaled group of
// the given size whose "StudentInformation" op is read-only when
// followerReads is set, fronted by a bare proxy whose ReadObserver
// feeds the staleness checker. Each replica's backend has Workers slots
// of ServiceTime — read handlers run concurrently on follower replicas
// (see bpeer.Config.ReadOnlyOps), which is exactly what the slots
// bound — and answers "<replica>:<op>" so the harness can attribute
// each read to its serving replica.
func newFollowersCluster(ctx context.Context, opts FollowersOptions, replicas int, followerReads bool) (*followersCluster, error) {
	timings := benchTimings()
	timings.CallTimeout = 2 * time.Second
	timings.RetryDelay = 25 * time.Millisecond
	bed, err := NewTestBed(ClusterOptions{Seed: opts.Seed, Timings: timings})
	if err != nil {
		return nil, err
	}
	c := &followersCluster{TestBed: bed, checker: chaos.NewChecker()}

	specs := make([]core.ReplicaSpec, replicas)
	for i := range specs {
		name := fmt.Sprintf("students-%d", i)
		specs[i] = core.ReplicaSpec{
			Name: name,
			Handler: finiteBackend(opts.Workers, opts.ServiceTime, func(op string, _ []byte) ([]byte, error) {
				return []byte(name + ":" + op), nil
			}),
		}
	}
	var readOps []string
	if followerReads {
		readOps = []string{"StudentInformation"}
	}
	deployCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	c.group, err = bed.Dep.DeployGroup(deployCtx, core.GroupSpec{
		Name:        "StudentManagement",
		Signature:   StudentSignature(),
		QoS:         benchQoS,
		Replicas:    specs,
		ReadOnlyOps: readOps,
	})
	cancel()
	if err == nil {
		c.proxy, err = bed.NewProxy("students-proxy", core.ProxyOptions{ReadObserver: c.checker.RecordRead})
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// runFollowersPoint measures one configuration: closed-loop readers for
// the window, with keyed background writes advancing the journal.
func runFollowersPoint(ctx context.Context, opts FollowersOptions, replicas int, followerReads bool) (FollowersPoint, error) {
	config := "coordinator"
	if followerReads {
		config = "followers"
	}
	point := FollowersPoint{Config: config, Replicas: replicas}
	c, err := newFollowersCluster(ctx, opts, replicas, followerReads)
	if err != nil {
		return point, err
	}
	defer func() { _ = c.Close() }()

	// Warm: one keyed write (so the read index is non-zero) and one
	// read per client slot to prime discovery and the read set.
	warmCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	wctx := replog.ContextWithKey(warmCtx, "w-warm")
	if _, err := c.invoke(wctx, "UpdateStudent", []byte("warm")); err != nil {
		cancel()
		return point, fmt.Errorf("warm write: %w", err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.invoke(warmCtx, "StudentInformation", StudentRequestXML("S0001")); err != nil {
			cancel()
			return point, fmt.Errorf("warm read %d: %w", i, err)
		}
	}
	cancel()

	var (
		mu      sync.Mutex
		reads   int
		errors  int
		writes  int
		served  = make(map[string]int)
		latency = metrics.NewHistogram()
	)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		ticker := time.NewTicker(opts.WriteEvery)
		defer ticker.Stop()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-ticker.C:
			}
			callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
			kctx := replog.ContextWithKey(callCtx, fmt.Sprintf("w-%06d", i))
			_, err := c.invoke(kctx, "UpdateStudent", []byte(fmt.Sprintf("w-%06d", i)))
			cancel()
			if err == nil {
				mu.Lock()
				writes++
				mu.Unlock()
			}
		}
	}()

	var readers sync.WaitGroup
	start := time.Now()
	for r := 0; r < opts.Clients; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for time.Since(start) < opts.Window {
				callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
				t0 := time.Now()
				out, err := c.invoke(callCtx, "StudentInformation", StudentRequestXML("S0001"))
				took := time.Since(t0)
				cancel()
				mu.Lock()
				if err != nil {
					errors++
				} else {
					reads++
					latency.Observe(took)
					served[strings.SplitN(string(out), ":", 2)[0]]++
				}
				mu.Unlock()
			}
		}()
	}
	readers.Wait()
	elapsed := time.Since(start)
	close(stop)
	writer.Wait()

	point.Reads = reads
	point.Errors = errors
	point.Writes = writes
	point.Goodput = float64(reads) / elapsed.Seconds()
	point.P50 = latency.Percentile(50)
	point.P99 = latency.Percentile(99)
	point.Spread = len(served)
	point.Checked = c.checker.Reads()
	if v := c.checker.Violations(); len(v) > 0 {
		point.Stale = int64(len(v))
	}
	return point, nil
}

// Followers runs E13 and returns the sweep table plus the raw points.
func Followers(ctx context.Context, opts FollowersOptions) (*Table, *FollowersResult, error) {
	opts.applyDefaults()
	result := &FollowersResult{}

	baseline, err := runFollowersPoint(ctx, opts, opts.BaselineReplicas, false)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: followers baseline: %w", err)
	}
	result.Baseline = baseline
	for _, n := range opts.ReplicaCounts {
		point, err := runFollowersPoint(ctx, opts, n, true)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: followers %d replicas: %w", n, err)
		}
		result.Points = append(result.Points, point)
	}
	last := result.Points[len(result.Points)-1]
	if baseline.Goodput > 0 {
		result.Scaling = last.Goodput / baseline.Goodput
	}

	t := followersTable(fmt.Sprintf("Follower read goodput (workers/replica %d, service %v, window %v, %d clients, seed %d)",
		opts.Workers, opts.ServiceTime, opts.Window, opts.Clients, opts.Seed),
		append([]FollowersPoint{baseline}, result.Points...))
	t.AddNote("coordinator = reads unmarked, every read executes on the coordinator; followers = reads marked read-only, any replica serves behind the read-index barrier")
	t.AddNote("scaling at %d replicas: %.2fx coordinator-only goodput (%.0f/s vs %.0f/s)",
		last.Replicas, result.Scaling, last.Goodput, baseline.Goodput)
	t.AddNote("staleness invariant: every follower read carries the read-index it was issued at and the committed seq it observed; stale counts reads where observed < index (must be 0)")
	return t, result, nil
}

// followersTable lays out one row per point; E4 and E13 share it.
func followersTable(title string, points []FollowersPoint) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"config", "replicas", "reads", "errors", "writes", "goodput", "p50", "p99", "spread", "checked", "stale"},
	}
	for _, p := range points {
		t.AddRow(p.Config,
			fmt.Sprintf("%d", p.Replicas),
			fmt.Sprintf("%d", p.Reads),
			fmt.Sprintf("%d", p.Errors),
			fmt.Sprintf("%d", p.Writes),
			fmt.Sprintf("%.0f/s", p.Goodput),
			p.P50.String(),
			p.P99.String(),
			fmt.Sprintf("%d", p.Spread),
			fmt.Sprintf("%d", p.Checked),
			fmt.Sprintf("%d", p.Stale))
	}
	return t
}

func runFollowers(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := Followers(ctx, FollowersOptions{ReplicaCounts: f.Peers, Window: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	return FollowersReport(t, res), nil
}

// FollowersReport converts an E13 result into BENCH_followers.json: the
// per-configuration metrics plus the acceptance rows the gate holds it
// to.
func FollowersReport(t *Table, res *FollowersResult) *Report {
	r := NewReport("followers", t)
	addFollowersPoint(r, "coordinator", res.Baseline)
	for i, p := range res.Points {
		key := fmt.Sprintf("followers.%d", p.Replicas)
		addFollowersPoint(r, key, p)
		r.AddBound("read-index barrier held: no stale read", key+".stale", "<=", 0)
		r.AddBound("staleness invariant was exercised", key+".checked", ">", 0)
		if i == len(res.Points)-1 {
			r.AddBound("balancer spreads reads across replicas", key+".spread", ">=", 2)
		}
	}
	r.AddScalar("scaling", "ratio", res.Scaling)
	r.AddBound("read goodput scales with follower reads", "scaling", ">=", 2.5)
	return r
}

// addFollowersPoint records one point's metrics under key.
func addFollowersPoint(r *Report, key string, p FollowersPoint) {
	r.AddScalar(key+".goodput", "req/s", p.Goodput)
	r.AddScalar(key+".reads", "count", float64(p.Reads))
	r.AddScalar(key+".errors", "count", float64(p.Errors))
	r.AddScalar(key+".writes", "count", float64(p.Writes))
	r.AddScalar(key+".p50", "ns", float64(p.P50))
	r.AddScalar(key+".p99", "ns", float64(p.P99))
	r.AddScalar(key+".spread", "count", float64(p.Spread))
	r.AddScalar(key+".checked", "count", float64(p.Checked))
	r.AddScalar(key+".stale", "count", float64(p.Stale))
}
