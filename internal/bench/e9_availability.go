package bench

import (
	"context"
	"fmt"
	"time"

	"whisper/internal/baseline"
	"whisper/internal/metrics"
)

// AvailabilityOptions configures experiment E9: client-visible
// availability under a replica crash, Whisper vs. the strategies the
// paper positions itself against (no replication; WS-FTM-style
// client-side retry, reference [3]).
type AvailabilityOptions struct {
	// Requests per strategy.
	Requests int
	// CrashAfter is the request index at which the serving replica
	// crashes.
	CrashAfter int
	// Pacing is the inter-request gap (client think time).
	Pacing time.Duration
	// OutageWindow is how long the single server stays down before an
	// operator restarts it (its MTTR).
	OutageWindow time.Duration
	// Seed drives randomness.
	Seed int64
}

func (o *AvailabilityOptions) applyDefaults() {
	if o.Requests <= 0 {
		o.Requests = 60
	}
	if o.CrashAfter <= 0 {
		o.CrashAfter = o.Requests / 3
	}
	if o.Pacing <= 0 {
		o.Pacing = 10 * time.Millisecond
	}
	if o.OutageWindow <= 0 {
		o.OutageWindow = 300 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// AvailabilityResult is the outcome for one strategy.
type AvailabilityResult struct {
	Strategy string
	// EndpointsAtClient is how many endpoints the client must know.
	EndpointsAtClient int
	Errors            int
	Latency           *metrics.Histogram
	// ExtraAttempts counts failed attempts clients had to make beyond
	// one per request (client-retry pays these; Whisper hides them).
	ExtraAttempts int64
}

// Availability runs E9 and returns the comparison table.
func Availability(ctx context.Context, opts AvailabilityOptions) (*Table, []AvailabilityResult, error) {
	opts.applyDefaults()
	var results []AvailabilityResult

	whisperRes, err := availabilityWhisper(ctx, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: availability whisper: %w", err)
	}
	results = append(results, whisperRes)
	results = append(results, availabilityClientRetry(ctx, opts))
	results = append(results, availabilitySingle(ctx, opts))

	t := &Table{
		Title: fmt.Sprintf("Client-visible availability under replica crash (%d requests, crash after %d)",
			opts.Requests, opts.CrashAfter),
		Columns: []string{"strategy", "endpoints@client", "errors", "extra attempts", "mean", "max"},
	}
	for _, r := range results {
		t.AddRow(r.Strategy,
			fmt.Sprintf("%d", r.EndpointsAtClient),
			fmt.Sprintf("%d", r.Errors),
			fmt.Sprintf("%d", r.ExtraAttempts),
			r.Latency.Mean().String(), r.Latency.Max().String())
	}
	t.AddNote("Whisper masks the crash behind ONE endpoint (transparent); WS-FTM-style client retry also masks it but every client must hold the replica list and pay failed attempts; no replication simply fails for the outage window")
	return t, results, nil
}

func availabilityWhisper(ctx context.Context, opts AvailabilityOptions) (AvailabilityResult, error) {
	c, err := NewCluster(ctx, ClusterOptions{Peers: 3, Seed: opts.Seed})
	if err != nil {
		return AvailabilityResult{}, err
	}
	defer func() { _ = c.Close() }()
	res := AvailabilityResult{
		Strategy:          "Whisper (transparent P2P failover)",
		EndpointsAtClient: 1,
		Latency:           metrics.NewHistogram(),
	}
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil { // warm up
		return AvailabilityResult{}, err
	}
	for i := 0; i < opts.Requests; i++ {
		if i == opts.CrashAfter {
			if _, err := c.Group.CrashCoordinator(); err != nil {
				return AvailabilityResult{}, err
			}
		}
		start := time.Now()
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			res.Errors++
		}
		res.Latency.Observe(time.Since(start))
		time.Sleep(opts.Pacing)
	}
	return res, nil
}

// availabilityEndpoints builds three replicas with a 1ms service time.
func availabilityEndpoints() []*baseline.FuncEndpoint {
	mk := func(tag string) *baseline.FuncEndpoint {
		return baseline.NewFuncEndpoint(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
			time.Sleep(time.Millisecond)
			return []byte("<StudentInfo source=\"" + tag + "\"/>"), nil
		})
	}
	return []*baseline.FuncEndpoint{mk("r1"), mk("r2"), mk("r3")}
}

func availabilityClientRetry(ctx context.Context, opts AvailabilityOptions) AvailabilityResult {
	eps := availabilityEndpoints()
	cr := baseline.NewClientRetry(eps[0], eps[1], eps[2])
	res := AvailabilityResult{
		Strategy:          "WS-FTM-style client retry [3]",
		EndpointsAtClient: len(eps),
		Latency:           metrics.NewHistogram(),
	}
	for i := 0; i < opts.Requests; i++ {
		if i == opts.CrashAfter {
			eps[0].SetAvailable(false) // the preferred replica dies
		}
		start := time.Now()
		if _, err := cr.Invoke(ctx, "StudentInformation", nil); err != nil {
			res.Errors++
		}
		res.Latency.Observe(time.Since(start))
		time.Sleep(opts.Pacing)
	}
	res.ExtraAttempts = cr.Attempts() - int64(opts.Requests)
	return res
}

func availabilitySingle(ctx context.Context, opts AvailabilityOptions) AvailabilityResult {
	eps := availabilityEndpoints()
	single := baseline.NewSingleServer(eps[0])
	res := AvailabilityResult{
		Strategy:          "no replication (plain Web service)",
		EndpointsAtClient: 1,
		Latency:           metrics.NewHistogram(),
	}
	var downUntil time.Time
	for i := 0; i < opts.Requests; i++ {
		if i == opts.CrashAfter {
			eps[0].SetAvailable(false)
			downUntil = time.Now().Add(opts.OutageWindow)
		}
		if !downUntil.IsZero() && !eps[0].Available() && time.Now().After(downUntil) {
			eps[0].SetAvailable(true) // operator restarted it
		}
		start := time.Now()
		if _, err := single.Invoke(ctx, "StudentInformation", nil); err != nil {
			res.Errors++
		}
		res.Latency.Observe(time.Since(start))
		time.Sleep(opts.Pacing)
	}
	return res
}

func runAvailability(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := Availability(ctx, AvailabilityOptions{Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("availability", t)
	for _, s := range res {
		r.AddHistogram(s.Strategy+".latency", s.Latency)
		r.AddScalar(s.Strategy+".errors", "count", float64(s.Errors))
	}
	return r, nil
}
