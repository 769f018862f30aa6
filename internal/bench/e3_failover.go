package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"whisper/internal/metrics"
)

// FailoverOptions configures experiment E3: the worst-case RTT when
// the coordinator fails mid-load. The paper attributes the
// multi-second worst case to (a) the time to elect a new coordinator
// and (b) the time to re-bind the SWS-proxy to the elected b-peer.
type FailoverOptions struct {
	// Peers is the group size.
	Peers int
	// Seed drives randomness.
	Seed int64
	// Trials repeats the crash to average the components.
	Trials int
	// Trace equips each trial's cluster with distributed tracing and
	// captures the span tree of the slowest recovery request into the
	// result's Trace field (the whisper-bench -trace flag).
	Trace bool
}

func (o *FailoverOptions) applyDefaults() {
	if o.Peers <= 0 {
		o.Peers = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
}

// FailoverResult aggregates the incident anatomy across trials.
type FailoverResult struct {
	// SteadyRTT is the pre-crash request RTT distribution.
	SteadyRTT *metrics.Histogram
	// DetectElect measures crash → surviving replicas agree on the
	// new coordinator (failure detection + Bully election).
	DetectElect *metrics.Histogram
	// Unavailability measures crash → first successful request
	// (detection + election + proxy re-binding + retry).
	Unavailability *metrics.Histogram
	// WorstRTT is the slowest successful request observed during the
	// incidents.
	WorstRTT time.Duration
	// Trace is the span-tree anatomy of the slowest recovery request
	// (nil unless FailoverOptions.Trace).
	Trace *TraceSummary
}

// Failover runs E3: for each trial it deploys a fresh cluster, drives
// load, crashes the coordinator and measures the recovery anatomy.
func Failover(ctx context.Context, opts FailoverOptions) (*Table, *FailoverResult, error) {
	opts.applyDefaults()
	res := &FailoverResult{
		SteadyRTT:      metrics.NewHistogram(),
		DetectElect:    metrics.NewHistogram(),
		Unavailability: metrics.NewHistogram(),
	}
	for trial := 0; trial < opts.Trials; trial++ {
		if err := failoverTrial(ctx, opts, int64(trial), res); err != nil {
			return nil, nil, fmt.Errorf("bench: failover trial %d: %w", trial, err)
		}
	}

	t := &Table{
		Title:   fmt.Sprintf("Worst-case RTT anatomy under coordinator failure (%d peers, %d trials)", opts.Peers, opts.Trials),
		Columns: []string{"component", "mean", "p50", "max"},
	}
	t.AddRow("steady-state request RTT",
		res.SteadyRTT.Mean().String(), res.SteadyRTT.Percentile(50).String(), res.SteadyRTT.Max().String())
	t.AddRow("failure detection + election",
		res.DetectElect.Mean().String(), res.DetectElect.Percentile(50).String(), res.DetectElect.Max().String())
	t.AddRow("total unavailability (to first success)",
		res.Unavailability.Mean().String(), res.Unavailability.Percentile(50).String(), res.Unavailability.Max().String())
	t.AddRow("worst successful request RTT", res.WorstRTT.String(), "-", "-")
	t.AddNote("paper: worst-case RTT reaches seconds, dominated by election time and proxy re-binding; steady state stays sub-millisecond")
	return t, res, nil
}

func failoverTrial(ctx context.Context, opts FailoverOptions, trial int64, res *FailoverResult) error {
	c, err := NewCluster(ctx, ClusterOptions{Peers: opts.Peers, Seed: opts.Seed + trial, Tracing: opts.Trace})
	if err != nil {
		return err
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()

	// Steady-state load before the incident.
	for i := 0; i < 30; i++ {
		start := time.Now()
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			return err
		}
		res.SteadyRTT.Observe(time.Since(start))
	}

	// Watch for the survivors to agree on a new coordinator.
	oldCoord := c.Group.Coordinator()
	var agreeOnce sync.Once
	agreed := make(chan time.Time, 1)
	stopWatch := make(chan struct{})
	go func() {
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				peers := c.Group.Peers()
				if len(peers) == 0 {
					continue
				}
				coord := peers[0].Coordinator()
				ok := coord != "" && coord != oldCoord
				for _, p := range peers[1:] {
					if p.Coordinator() != coord {
						ok = false
						break
					}
				}
				if ok {
					agreeOnce.Do(func() { agreed <- time.Now() })
					return
				}
			case <-stopWatch:
				return
			}
		}
	}()

	crashAt := time.Now()
	if _, err := c.Group.CrashCoordinator(); err != nil {
		close(stopWatch)
		return err
	}

	// Hammer the service until a request succeeds again; the slowest
	// successful request during the incident is the worst-case RTT.
	// Under -trace each request runs under a client root span, and the
	// slowest successful one's span tree is kept as the incident
	// anatomy (proxy phases + b-peer spans joined over the pipe).
	tracer := c.Dep.Tracer()
	var firstSuccess time.Time
	for {
		rctx, span := tracer.StartSpan(ctx, "client.request")
		start := time.Now()
		_, err := c.Invoke(rctx, c.StudentID(0))
		rtt := time.Since(start)
		span.EndWith(err)
		if err == nil {
			if rtt > res.WorstRTT {
				res.WorstRTT = rtt
			}
			if opts.Trace && (res.Trace == nil || rtt > res.Trace.RTT) {
				if sum, serr := SummarizeTrace(c.Dep.TraceCollector(), span.Context().TraceID, rtt); serr == nil {
					res.Trace = sum
				}
			}
			firstSuccess = time.Now()
			break
		}
		if ctx.Err() != nil {
			close(stopWatch)
			return fmt.Errorf("service never recovered: %w", err)
		}
	}
	res.Unavailability.Observe(firstSuccess.Sub(crashAt))

	select {
	case at := <-agreed:
		res.DetectElect.Observe(at.Sub(crashAt))
	case <-time.After(10 * time.Second):
		close(stopWatch)
		return fmt.Errorf("survivors never agreed on a new coordinator")
	}
	close(stopWatch)
	return nil
}

func runFailover(ctx context.Context, f Flags) (*Report, error) {
	opts := FailoverOptions{Trials: f.Trials, Seed: f.Seed, Trace: f.Trace}
	if len(f.Peers) > 0 {
		opts.Peers = f.Peers[0]
	}
	t, res, err := Failover(ctx, opts)
	if err != nil {
		return nil, err
	}
	r := NewReport("failover", t)
	if res.Trace != nil {
		r.Trailer = res.Trace.Report
	}
	r.AddHistogram("steady_rtt", res.SteadyRTT)
	r.AddHistogram("detect_elect", res.DetectElect)
	r.AddHistogram("unavailability", res.Unavailability)
	r.AddScalar("worst_rtt", "ns", float64(res.WorstRTT))
	return r, nil
}
