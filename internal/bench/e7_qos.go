package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/metrics"
	"whisper/internal/qos"
)

// QoSOptions configures experiment E7: QoS-aware peer-group selection
// (paper §2.4) against a semantics-only random baseline.
type QoSOptions struct {
	// Requests per strategy.
	Requests int
	// Seed drives randomness.
	Seed int64
	// PremiumDelay and BudgetDelay are the handler processing times of
	// the two groups.
	PremiumDelay time.Duration
	BudgetDelay  time.Duration
	// BudgetFailRate is the fraction of requests the budget group
	// fails (application errors).
	BudgetFailRate float64
}

func (o *QoSOptions) applyDefaults() {
	if o.Requests <= 0 {
		o.Requests = 60
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.PremiumDelay <= 0 {
		o.PremiumDelay = 1 * time.Millisecond
	}
	if o.BudgetDelay <= 0 {
		o.BudgetDelay = 15 * time.Millisecond
	}
	if o.BudgetFailRate == 0 {
		o.BudgetFailRate = 0.2
	}
}

// QoSStrategyResult is the outcome of one selection strategy.
type QoSStrategyResult struct {
	Strategy string
	Latency  *metrics.Histogram
	Success  int
	Failed   int
}

// QoSSelection runs E7.
func QoSSelection(ctx context.Context, opts QoSOptions) (*Table, []QoSStrategyResult, error) {
	opts.applyDefaults()
	bed, err := NewTestBed(ClusterOptions{Seed: opts.Seed})
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = bed.Close() }()

	sig := StudentSignature()
	rng := rand.New(rand.NewSource(opts.Seed))
	mkHandler := func(delay time.Duration, failRate float64) bpeer.Handler {
		return bpeer.HandlerFunc(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
			time.Sleep(delay)
			if failRate > 0 && rng.Float64() < failRate {
				return nil, fmt.Errorf("budget peer overloaded")
			}
			return []byte("<StudentInfo><ID>S0001</ID></StudentInfo>"), nil
		})
	}

	ctx, cancel := context.WithTimeout(ctx, 180*time.Second)
	defer cancel()
	if _, derr := bed.Dep.DeployGroup(ctx, core.GroupSpec{
		Name:      "premium",
		Signature: sig,
		QoS:       qos.Profile{LatencyMillis: 1, CostPerCall: 2, Reliability: 0.999, Availability: 0.999},
		Handler:   mkHandler(opts.PremiumDelay, 0),
		Count:     2,
	}); derr != nil {
		return nil, nil, fmt.Errorf("bench: premium group: %w", derr)
	}
	if _, derr := bed.Dep.DeployGroup(ctx, core.GroupSpec{
		Name:      "budget",
		Signature: sig,
		QoS:       qos.Profile{LatencyMillis: 15, CostPerCall: 0.1, Reliability: 0.8, Availability: 0.9},
		Handler:   mkHandler(opts.BudgetDelay, opts.BudgetFailRate),
		Count:     2,
	}); derr != nil {
		return nil, nil, fmt.Errorf("bench: budget group: %w", derr)
	}

	p, err := bed.NewProxy("qos-proxy", core.ProxyOptions{})
	if err != nil {
		return nil, nil, err
	}

	matches, err := p.FindPeerGroupAdv(ctx, sig)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: discovery: %w", err)
	}
	if len(matches) != 2 {
		return nil, nil, fmt.Errorf("bench: expected 2 matching groups, got %d", len(matches))
	}

	// Strategy A — random among semantically acceptable groups (the
	// architecture without §2.4).
	random := QoSStrategyResult{Strategy: "random (semantics only)", Latency: metrics.NewHistogram()}
	for i := 0; i < opts.Requests; i++ {
		gm := matches[rng.Intn(len(matches))]
		start := time.Now()
		_, err := p.InvokeGroup(ctx, gm.Adv, "StudentInformation", StudentRequestXML("S0001"))
		random.Latency.Observe(time.Since(start))
		if err != nil {
			random.Failed++
		} else {
			random.Success++
		}
	}

	// Strategy B — QoS-aware ranked selection (Invoke uses the
	// selector and falls through on failure).
	aware := QoSStrategyResult{Strategy: "QoS-aware (§2.4)", Latency: metrics.NewHistogram()}
	for i := 0; i < opts.Requests; i++ {
		start := time.Now()
		_, err := p.Invoke(ctx, sig, "StudentInformation", StudentRequestXML("S0001"))
		aware.Latency.Observe(time.Since(start))
		if err != nil {
			aware.Failed++
		} else {
			aware.Success++
		}
	}

	results := []QoSStrategyResult{random, aware}
	t := &Table{
		Title:   fmt.Sprintf("QoS-based peer selection (%d requests per strategy)", opts.Requests),
		Columns: []string{"strategy", "mean", "p99", "success", "failed"},
	}
	for _, r := range results {
		t.AddRow(r.Strategy, r.Latency.Mean().String(), r.Latency.Percentile(99).String(),
			fmt.Sprintf("%d", r.Success), fmt.Sprintf("%d", r.Failed))
	}
	t.AddNote("both groups match the request semantics exactly; only the §2.4 QoS model separates them")
	return t, results, nil
}

func runQoS(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := QoSSelection(ctx, QoSOptions{Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("qos", t)
	for _, s := range res {
		r.AddHistogram(s.Strategy+".latency", s.Latency)
	}
	return r, nil
}
