package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/core"
	"whisper/internal/loadctl"
	"whisper/internal/loadgen"
	"whisper/internal/proxy"
	"whisper/internal/replog"
)

// OverloadOptions configures experiment E12: open-loop overload sweeps
// (1×/5×/10× of a calibrated base rate) against a protected proxy
// (loadctl admission pipeline) and an unprotected one. The headline is
// the knee of the goodput curve: without admission control goodput
// collapses past saturation — every queue fills until all deadlines
// fire — while the protected proxy sheds the excess early and keeps
// serving at capacity.
type OverloadOptions struct {
	// Replicas is the group size (default 3).
	Replicas int
	// Workers is the backend's concurrent capacity — requests beyond
	// it queue on the handler's semaphore (default 2).
	Workers int
	// ServiceTime is the per-request backend work (default 5ms).
	ServiceTime time.Duration
	// Multipliers are the offered-load multiples swept
	// (default 1, 5, 10).
	Multipliers []float64
	// Window is the open-loop generation window per point
	// (default 1.5s).
	Window time.Duration
	// Timeout is each request's end-to-end deadline (default 250ms).
	Timeout time.Duration
	// Clients is the number of Zipf-skewed caller identities
	// (default 8).
	Clients int
	// Seed drives the arrival schedules and all other randomness. The
	// protected and unprotected runs of the same multiplier share one
	// schedule, so the comparison is paired.
	Seed int64
}

func (o *OverloadOptions) applyDefaults() {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 5 * time.Millisecond
	}
	if len(o.Multipliers) == 0 {
		o.Multipliers = []float64{1, 5, 10}
	}
	if o.Window <= 0 {
		o.Window = 1500 * time.Millisecond
	}
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// OverloadPoint is one (configuration, multiplier) measurement.
type OverloadPoint struct {
	// Config is "protected" or "unprotected".
	Config string
	// Multiplier is the offered-load multiple of BaseRate; Rate the
	// resulting offered req/s.
	Multiplier float64
	Rate       float64
	// Offered/Good/Violations/Shed/Errors classify every arrival:
	// Good completed within deadline, Violations completed after it
	// (admitted work the caller had abandoned), Shed were rejected by
	// admission, Errors failed any other way.
	Offered    int
	Good       int
	Violations int
	Shed       int
	Errors     int
	// Goodput is Good per second; ShedRate the shed fraction.
	Goodput  float64
	ShedRate float64
	// P50/P99 are latency percentiles of Good requests.
	P50, P99 time.Duration
	// Duplicates counts exactly-once violations in the op ledger: a
	// shed must be a clean rejection, never a duplicate execution.
	Duplicates int
	// Limit is the AIMD concurrency limit at the end of the window
	// (0 for the unprotected configuration).
	Limit float64
}

// OverloadResult is the full E12 sweep.
type OverloadResult struct {
	// Capacity is the measured closed-loop capacity (req/s); BaseRate
	// the 1× offered load derived from it.
	Capacity float64
	BaseRate float64
	Points   []OverloadPoint
}

// overloadCluster is one deployment under test: a journaled claim
// group behind either a protected or an unprotected proxy.
type overloadCluster struct {
	*TestBed
	group  *core.Group
	proxy  *proxy.SWSProxy
	ledger *chaos.OpLedger
}

// newOverloadCluster deploys a fresh cluster whose backend has Workers
// slots of ServiceTime each, shared by the group. adm == nil is the
// unprotected configuration.
func newOverloadCluster(ctx context.Context, opts OverloadOptions, adm *loadctl.Controller) (*overloadCluster, error) {
	timings := benchTimings()
	timings.CallTimeout = 2 * opts.Timeout
	timings.RetryDelay = 25 * time.Millisecond
	bed, err := NewTestBed(ClusterOptions{Seed: opts.Seed, Timings: timings})
	if err != nil {
		return nil, err
	}
	c := &overloadCluster{TestBed: bed, ledger: chaos.NewOpLedger()}
	deployCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	c.group, err = bed.Dep.DeployGroup(deployCtx, core.GroupSpec{
		Name:      "ClaimProcessing",
		Signature: PaymentSignature(),
		QoS:       benchQoS,
		Handler:   finiteBackend(opts.Workers, opts.ServiceTime, recordPayment(c.ledger)),
		Count:     opts.Replicas,
	})
	cancel()
	if err == nil {
		c.proxy, err = bed.NewProxy("claims-proxy", core.ProxyOptions{Admission: adm})
	}
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	return c, nil
}

// call drives one generated arrival through the proxy under a fresh
// idempotency key, acking the ledger on success.
func (c *overloadCluster) call(ctx context.Context, idPrefix string, seq int) error {
	id := fmt.Sprintf("%s-%06d", idPrefix, seq)
	cctx := replog.ContextWithKey(ctx, "k-"+id)
	_, err := c.proxy.Invoke(cctx, PaymentSignature(), "ProcessPayment", PaymentRequestXML(id))
	if err == nil {
		c.ledger.RecordAck(id)
	}
	return err
}

// warm drives a few sequential requests so discovery, the coordinator
// binding and (when protected) the service estimate are primed before
// the measured window.
func (c *overloadCluster) warm(ctx context.Context, opts OverloadOptions) error {
	for i := 0; i < 20; i++ {
		wctx, cancel := context.WithTimeout(ctx, 2*time.Second)
		// One identity per warm call: warming must prime the pipeline,
		// not drain any one client's token bucket.
		err := c.call(loadctl.ContextWithClient(wctx, fmt.Sprintf("warm-%d", i)), "warm", i)
		cancel()
		if err != nil {
			return fmt.Errorf("warm call %d: %w", i, err)
		}
	}
	return nil
}

// measureCapacity runs a short closed loop (2×Workers clients, so the
// backend stays saturated but queues stay short) against a fresh
// unprotected cluster and reports the sustained req/s.
func measureCapacity(ctx context.Context, opts OverloadOptions) (float64, error) {
	c, err := newOverloadCluster(ctx, opts, nil)
	if err != nil {
		return 0, err
	}
	defer func() { _ = c.Close() }()
	if err := c.warm(ctx, opts); err != nil {
		return 0, err
	}
	const window = 600 * time.Millisecond
	var (
		mu   sync.Mutex
		done int
	)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2*opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; time.Since(start) < window; i++ {
				cctx, cancel := context.WithTimeout(ctx, time.Second)
				err := c.call(cctx, fmt.Sprintf("cal-%d", w), i)
				cancel()
				if err == nil {
					mu.Lock()
					done++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if done == 0 {
		return 0, fmt.Errorf("bench: capacity calibration completed zero requests")
	}
	return float64(done) / elapsed.Seconds(), nil
}

// admissionConfig derives the protected proxy's pipeline from the base
// rate: each client may claim at most half the total capacity (so a
// Zipf-hot caller cannot starve the rest), the AIMD limit discovers
// sustainable concurrency on its own, and queue waits are bounded by
// the request deadline.
func admissionConfig(baseRate float64, opts OverloadOptions) loadctl.Config {
	rate := baseRate / 2
	if rate < 1 {
		rate = 1
	}
	return loadctl.Config{
		Rate:         rate,
		Burst:        rate/4 + 1,
		InitialLimit: 4,
		MinLimit:     1,
		MaxLimit:     64,
		Tolerance:    2.5,
		Backoff:      0.75,
		// The queue is deliberately short: every queued request adds
		// its own wait to the latency of admitted work, and E12's
		// acceptance bound is p99(admitted, 10x) ≤ 2×p99(1x). Excess
		// belongs shed, not queued.
		MaxQueue: 3,
		MaxWait:  opts.Timeout / 8,
	}
}

// runOverloadPoint measures one (configuration, multiplier) cell on a
// fresh cluster.
func runOverloadPoint(ctx context.Context, opts OverloadOptions, baseRate, mult float64, protected bool) (OverloadPoint, error) {
	cfg := "unprotected"
	var adm *loadctl.Controller
	if protected {
		cfg = "protected"
		adm = loadctl.NewController(admissionConfig(baseRate, opts))
	}
	point := OverloadPoint{Config: cfg, Multiplier: mult, Rate: baseRate * mult}
	c, err := newOverloadCluster(ctx, opts, adm)
	if err != nil {
		return point, err
	}
	defer func() { _ = c.Close() }()
	if err := c.warm(ctx, opts); err != nil {
		return point, err
	}

	seq := 0
	var mu sync.Mutex
	prefix := fmt.Sprintf("%s-%gx", cfg, mult)
	res := loadgen.Run(ctx, loadgen.Options{
		Rate:    point.Rate,
		Window:  opts.Window,
		Clients: opts.Clients,
		Timeout: opts.Timeout,
		// Same seed for both configurations of a multiplier: the
		// offered schedules are identical, the comparison paired.
		Seed: opts.Seed*1000 + int64(mult*10),
	}, func(cctx context.Context, req loadgen.Request) error {
		mu.Lock()
		seq++
		n := seq
		mu.Unlock()
		return c.call(cctx, prefix, n)
	})

	point.Offered = res.Offered
	point.Good = res.Good
	point.Violations = res.Violations
	point.Shed = res.Shed
	point.Errors = res.Errors
	point.Goodput = res.Goodput()
	point.ShedRate = res.ShedRate()
	point.P50 = res.Latency.Percentile(50)
	point.P99 = res.Latency.Percentile(99)
	point.Duplicates = len(c.ledger.Duplicates())
	if adm != nil {
		point.Limit = adm.Snapshot().Limit
	}
	return point, nil
}

// Overload runs E12 and returns the sweep table plus the raw points.
func Overload(ctx context.Context, opts OverloadOptions) (*Table, *OverloadResult, error) {
	opts.applyDefaults()
	// The 1× offered load is 70% of the cluster's measured closed-loop
	// capacity, so the sweep saturates the same way on any host.
	capacity, err := measureCapacity(ctx, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: overload calibration: %w", err)
	}
	result := &OverloadResult{Capacity: capacity, BaseRate: 0.7 * capacity}
	for _, mult := range opts.Multipliers {
		for _, protected := range []bool{false, true} {
			point, err := runOverloadPoint(ctx, opts, result.BaseRate, mult, protected)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: overload %s %gx: %w", point.Config, mult, err)
			}
			result.Points = append(result.Points, point)
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Overload goodput knee (base %.0f req/s, window %v, deadline %v, seed %d)",
			result.BaseRate, opts.Window, opts.Timeout, opts.Seed),
		Columns: []string{"config", "offered load", "offered", "good", "shed", "errors", "late", "goodput", "shed rate", "p50", "p99", "dups", "limit"},
	}
	for _, p := range result.Points {
		limit := "-"
		if p.Config == "protected" {
			limit = fmt.Sprintf("%.1f", p.Limit)
		}
		t.AddRow(p.Config,
			fmt.Sprintf("%.0f/s (%gx)", p.Rate, p.Multiplier),
			fmt.Sprintf("%d", p.Offered),
			fmt.Sprintf("%d", p.Good),
			fmt.Sprintf("%d", p.Shed),
			fmt.Sprintf("%d", p.Errors),
			fmt.Sprintf("%d", p.Violations),
			fmt.Sprintf("%.0f/s", p.Goodput),
			fmt.Sprintf("%.0f%%", 100*p.ShedRate),
			p.P50.String(),
			p.P99.String(),
			fmt.Sprintf("%d", p.Duplicates),
			limit)
	}
	t.AddNote("closed-loop capacity calibrated at %.0f req/s; 1x offered load is 70%% of it", result.Capacity)
	maxMult := opts.Multipliers[len(opts.Multipliers)-1]
	if prot, unprot := result.Point("protected", maxMult), result.Point("unprotected", maxMult); prot != nil && unprot != nil {
		t.AddNote("knee at %gx: protected goodput %.0f/s vs unprotected %.0f/s; protected sheds %.0f%% early instead of timing everything out",
			maxMult, prot.Goodput, unprot.Goodput, 100*prot.ShedRate)
	}
	t.AddNote("admission pipeline: per-client token bucket -> deadline check vs p95 estimate -> AIMD concurrency limit with EDF queue -> circuit breaker; sheds happen before any pipe I/O")
	return t, result, nil
}

// Point returns the measurement for (config, multiplier), or nil.
func (r *OverloadResult) Point(config string, mult float64) *OverloadPoint {
	for i := range r.Points {
		if r.Points[i].Config == config && r.Points[i].Multiplier == mult {
			return &r.Points[i]
		}
	}
	return nil
}

func runOverload(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := Overload(ctx, OverloadOptions{Window: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	return OverloadReport(t, res), nil
}

// OverloadReport converts an E12 result into BENCH_overload.json: the
// per-point metrics plus the acceptance rows the gate holds it to.
func OverloadReport(t *Table, res *OverloadResult) *Report {
	r := NewReport("overload", t)
	r.AddScalar("base_rate", "req/s", res.BaseRate)
	r.AddScalar("capacity", "req/s", res.Capacity)
	key := func(config string, mult float64) string { return fmt.Sprintf("%s.%gx", config, mult) }
	lo, hi, mults := math.Inf(1), math.Inf(-1), 0
	for _, p := range res.Points {
		k := key(p.Config, p.Multiplier)
		r.AddScalar(k+".offered_rate", "req/s", p.Rate)
		r.AddScalar(k+".offered", "count", float64(p.Offered))
		r.AddScalar(k+".good", "count", float64(p.Good))
		r.AddScalar(k+".shed", "count", float64(p.Shed))
		r.AddScalar(k+".errors", "count", float64(p.Errors))
		r.AddScalar(k+".violations", "count", float64(p.Violations))
		r.AddScalar(k+".duplicates", "count", float64(p.Duplicates))
		r.AddScalar(k+".goodput", "req/s", p.Goodput)
		r.AddScalar(k+".shed_rate", "ratio", p.ShedRate)
		r.AddScalar(k+".p50", "ns", float64(p.P50))
		r.AddScalar(k+".p99", "ns", float64(p.P99))
		// A shed must be a clean rejection, never a duplicate execution.
		r.AddBound("no duplicate execution", k+".duplicates", "<=", 0)
		if p.Config != "protected" {
			continue
		}
		r.AddScalar(k+".limit", "count", p.Limit)
		r.AddBound("no admitted request missed its deadline", k+".violations", "<=", 0)
		lo, hi, mults = math.Min(lo, p.Multiplier), math.Max(hi, p.Multiplier), mults+1
	}
	r.AddScalar("multipliers", "count", float64(mults))
	r.AddBound("at least two multipliers to locate a knee", "multipliers", ">=", 2)
	// The knee: past saturation the protected proxy keeps serving at
	// capacity while the unprotected one times everything out, and the
	// requests it does admit are as fast as at 1x.
	r.AddRelativeBound("goodput knee at the top multiplier",
		key("protected", hi)+".goodput", ">=", 3, key("unprotected", hi)+".goodput")
	r.AddRelativeBound("admitted p99 holds under overload",
		key("protected", hi)+".p99", "<=", 2, key("protected", lo)+".p99")
	return r
}
