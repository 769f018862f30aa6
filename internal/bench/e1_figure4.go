package bench

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"
)

// Figure4Options configures experiment E1 (the paper's Figure 4):
// messages exchanged as the number of b-peers increases.
type Figure4Options struct {
	// PeerCounts are the group sizes to sweep; nil selects 2..9 (the
	// paper's 9-machine testbed minus rendezvous).
	PeerCounts []int
	// Window is the steady-state measurement window per point.
	Window time.Duration
	// Requests is the number of service invocations issued during the
	// window.
	Requests int
	// Settle is the warm-up before counting starts.
	Settle time.Duration
	// Seed drives all randomness.
	Seed int64
}

func (o *Figure4Options) applyDefaults() {
	if len(o.PeerCounts) == 0 {
		o.PeerCounts = []int{2, 3, 4, 5, 6, 7, 8, 9}
	}
	if o.Window <= 0 {
		o.Window = 1500 * time.Millisecond
	}
	if o.Requests <= 0 {
		o.Requests = 50
	}
	if o.Settle <= 0 {
		o.Settle = 400 * time.Millisecond
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// Figure4Point is one measured sweep point.
type Figure4Point struct {
	// Peers is the b-peer count.
	Peers int
	// PerProto maps protocol tag to delivered message count.
	PerProto map[string]int64
	// Total is the total delivered message count.
	Total int64
	// Bytes is the total delivered byte count.
	Bytes int64
}

// Figure4 runs E1 and returns the table plus the raw sweep points.
func Figure4(ctx context.Context, opts Figure4Options) (*Table, []Figure4Point, error) {
	opts.applyDefaults()
	var points []Figure4Point
	for _, n := range opts.PeerCounts {
		p, err := figure4Point(ctx, n, opts)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: figure4 at %d peers: %w", n, err)
		}
		points = append(points, p)
	}

	protoSet := map[string]bool{}
	for _, p := range points {
		for tag := range p.PerProto {
			protoSet[tag] = true
		}
	}
	protos := make([]string, 0, len(protoSet))
	for tag := range protoSet {
		protos = append(protos, tag)
	}
	sort.Strings(protos)

	t := &Table{
		Title:   fmt.Sprintf("Figure 4: messages exchanged vs. number of b-peers (window=%v, %d requests)", opts.Window, opts.Requests),
		Columns: append([]string{"b-peers"}, append(protos, "TOTAL", "bytes")...),
	}
	for _, p := range points {
		row := []string{fmt.Sprintf("%d", p.Peers)}
		for _, tag := range protos {
			row = append(row, fmt.Sprintf("%d", p.PerProto[tag]))
		}
		row = append(row, fmt.Sprintf("%d", p.Total), fmt.Sprintf("%d", p.Bytes))
		t.AddRow(row...)
	}
	if r2, slope := linearFit(points); r2 > 0 {
		t.AddNote("linear fit of TOTAL vs peers: slope=%.1f msgs/peer, R²=%.4f (paper: \"predictable linear increase\")", slope, r2)
	}
	return t, points, nil
}

func figure4Point(ctx context.Context, peers int, opts Figure4Options) (Figure4Point, error) {
	c, err := NewCluster(ctx, ClusterOptions{Peers: peers, Seed: opts.Seed})
	if err != nil {
		return Figure4Point{}, err
	}
	defer func() { _ = c.Close() }()

	ctx, cancel := context.WithTimeout(ctx, opts.Window*4+30*time.Second)
	defer cancel()
	// Warm-up: one invocation populates the proxy's caches and
	// bindings, then let background protocols settle.
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil {
		return Figure4Point{}, err
	}
	time.Sleep(opts.Settle)

	c.Net.ResetStats()
	interval := opts.Window / time.Duration(opts.Requests)
	start := time.Now()
	for i := 0; i < opts.Requests; i++ {
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			return Figure4Point{}, err
		}
		// Pace the load across the window so time-driven maintenance
		// traffic (heartbeats, leases) is fully represented.
		next := start.Add(time.Duration(i+1) * interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}
	if rest := opts.Window - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
	stats := c.Net.Stats()

	point := Figure4Point{
		Peers:    peers,
		PerProto: make(map[string]int64, len(stats.PerProto)),
		Total:    stats.Total.Messages,
		Bytes:    stats.Total.Bytes,
	}
	for tag, ps := range stats.PerProto {
		point.PerProto[tag] = ps.Messages
	}
	return point, nil
}

// linearFit computes R² and slope of Total vs Peers.
func linearFit(points []Figure4Point) (r2, slope float64) {
	if len(points) < 2 {
		return 0, 0
	}
	n := float64(len(points))
	var sx, sy, sxx, sxy, syy float64
	for _, p := range points {
		x, y := float64(p.Peers), float64(p.Total)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		syy += y * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0
	}
	slope = (n*sxy - sx*sy) / den
	// R² from correlation coefficient.
	varY := n*syy - sy*sy
	if varY == 0 {
		return 1, slope
	}
	r := (n*sxy - sx*sy) / (math.Sqrt(den) * math.Sqrt(varY))
	return r * r, slope
}

func runFigure4(ctx context.Context, f Flags) (*Report, error) {
	t, _, err := Figure4(ctx, Figure4Options{PeerCounts: f.Peers, Window: f.Window, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	return NewReport("figure4", t), nil
}
