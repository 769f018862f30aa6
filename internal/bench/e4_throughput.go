package bench

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/metrics"
)

// ThroughputOptions configures experiment E4: closed-loop throughput
// and latency as the group grows ("the proposed solution was able to
// scale to meet desired throughput and latency requirements").
type ThroughputOptions struct {
	// PeerCounts sweeps group sizes; nil selects {2, 4, 8}.
	PeerCounts []int
	// Clients is the closed-loop client count.
	Clients int
	// Duration is the measured window per point.
	Duration time.Duration
	// ServiceTime is the per-request backend processing time; it is
	// what makes the serving replica the bottleneck (zero hides the
	// load-sharing effect behind network latency).
	ServiceTime time.Duration
	// Seed drives randomness.
	Seed int64
}

func (o *ThroughputOptions) applyDefaults() {
	if len(o.PeerCounts) == 0 {
		o.PeerCounts = []int{2, 4, 8}
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Duration <= 0 {
		o.Duration = 1500 * time.Millisecond
	}
	if o.ServiceTime <= 0 {
		o.ServiceTime = 2 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ThroughputPoint is one sweep point.
type ThroughputPoint struct {
	Peers      int
	Policy     string
	Requests   int64
	Errors     int64
	Throughput float64 // requests per second
	Latency    *metrics.Histogram
}

// Throughput runs E4.
func Throughput(ctx context.Context, opts ThroughputOptions) (*Table, []ThroughputPoint, error) {
	opts.applyDefaults()
	var points []ThroughputPoint
	for _, loadSharing := range []bool{false, true} {
		for _, n := range opts.PeerCounts {
			p, err := throughputPoint(ctx, n, loadSharing, opts)
			if err != nil {
				return nil, nil, fmt.Errorf("bench: throughput at %d peers: %w", n, err)
			}
			points = append(points, p)
		}
	}
	t := &Table{
		Title:   fmt.Sprintf("Throughput & latency vs. group size (%d closed-loop clients, %v service time, %v window)", opts.Clients, opts.ServiceTime, opts.Duration),
		Columns: []string{"policy", "b-peers", "req/s", "p50", "p99", "max", "errors"},
	}
	for _, p := range points {
		t.AddRow(
			p.Policy,
			fmt.Sprintf("%d", p.Peers),
			fmt.Sprintf("%.0f", p.Throughput),
			p.Latency.Percentile(50).String(),
			p.Latency.Percentile(99).String(),
			p.Latency.Max().String(),
			fmt.Sprintf("%d", p.Errors),
		)
	}
	t.AddNote("coordinated (the paper's static redundancy): one coordinator serves, throughput flat in group size")
	t.AddNote("load-sharing (the §4 extension): every replica serves, spreading load across the group")
	return t, points, nil
}

func throughputPoint(ctx context.Context, peers int, loadSharing bool, opts ThroughputOptions) (ThroughputPoint, error) {
	c, err := NewCluster(ctx, ClusterOptions{
		Peers: peers, Seed: opts.Seed, LoadSharing: loadSharing,
		BackendDelay: opts.ServiceTime,
	})
	if err != nil {
		return ThroughputPoint{}, err
	}
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithTimeout(ctx, opts.Duration+60*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil { // warm bindings
		return ThroughputPoint{}, err
	}

	policy := "coordinated"
	if loadSharing {
		policy = "load-sharing"
	}
	point := ThroughputPoint{Peers: peers, Policy: policy, Latency: metrics.NewHistogram()}
	var requests, errs atomic.Int64
	deadline := time.Now().Add(opts.Duration)
	var wg sync.WaitGroup
	for cl := 0; cl < opts.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				start := time.Now()
				_, err := c.Invoke(ctx, c.StudentID(cl*1000+i))
				point.Latency.Observe(time.Since(start))
				requests.Add(1)
				if err != nil {
					errs.Add(1)
				}
			}
		}(cl)
	}
	wg.Wait()
	point.Requests = requests.Load()
	point.Errors = errs.Load()
	point.Throughput = float64(point.Requests) / opts.Duration.Seconds()
	return point, nil
}

func runThroughput(ctx context.Context, f Flags) (*Report, error) {
	t, points, err := Throughput(ctx, ThroughputOptions{PeerCounts: f.Peers, Duration: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("throughput", t)
	for _, p := range points {
		key := fmt.Sprintf("%s.%dpeers", p.Policy, p.Peers)
		r.AddScalar(key+".throughput", "req/s", p.Throughput)
		r.AddHistogram(key+".latency", p.Latency)
	}
	return r, nil
}
