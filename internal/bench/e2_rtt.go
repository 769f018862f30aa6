package bench

import (
	"context"
	"fmt"
	"time"

	"whisper/internal/metrics"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// RTTOptions configures experiment E2: steady-state round-trip times
// on the LAN-calibrated network (the paper reports ~0.5 ms average
// message RTT).
type RTTOptions struct {
	// Samples is the number of measured round trips per series.
	Samples int
	// Peers is the group size.
	Peers int
	// Seed drives randomness.
	Seed int64
}

func (o *RTTOptions) applyDefaults() {
	if o.Samples <= 0 {
		o.Samples = 200
	}
	if o.Peers <= 0 {
		o.Peers = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// RTTResult carries the two measured distributions.
type RTTResult struct {
	// Transport is the raw message ping/pong RTT between two peers —
	// the quantity the paper's monitor timestamps.
	Transport *metrics.Histogram
	// Invocation is the full semantic service invocation RTT
	// (proxy → coordinator → backend → back).
	Invocation *metrics.Histogram
}

// RTT runs E2.
func RTT(ctx context.Context, opts RTTOptions) (*Table, *RTTResult, error) {
	opts.applyDefaults()
	res := &RTTResult{}

	// --- raw transport RTT: two bare peers exchanging ping/pong on
	// the LAN model, exactly the paper's "request packet time-stamped
	// by the monitor ... reply packet time-stamped".
	transport, err := measureTransportRTT(ctx, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: transport RTT: %w", err)
	}
	res.Transport = transport

	// --- full invocation RTT through the Whisper stack.
	c, err := NewCluster(ctx, ClusterOptions{Peers: opts.Peers, Seed: opts.Seed})
	if err != nil {
		return nil, nil, err
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil { // warm binding
		return nil, nil, err
	}
	inv := metrics.NewHistogram()
	for i := 0; i < opts.Samples; i++ {
		start := time.Now()
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			return nil, nil, fmt.Errorf("bench: invoke %d: %w", i, err)
		}
		inv.Observe(time.Since(start))
	}
	res.Invocation = inv

	t := &Table{
		Title:   fmt.Sprintf("RTT (LAN model, %d samples): paper reports ~0.5 ms average message RTT", opts.Samples),
		Columns: []string{"series", "mean", "p50", "p99", "min", "max"},
	}
	addHist := func(name string, h *metrics.Histogram) {
		t.AddRow(name,
			h.Mean().String(), h.Percentile(50).String(), h.Percentile(99).String(),
			h.Min().String(), h.Max().String())
	}
	addHist("message ping/pong", res.Transport)
	addHist("service invocation", res.Invocation)
	t.AddNote("one message RTT ≈ 2× one-way LAN latency (250µs) → ~0.5ms, matching the paper")
	return t, res, nil
}

func measureTransportRTT(ctx context.Context, opts RTTOptions) (*metrics.Histogram, error) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.NewLANModel(opts.Seed)), simnet.WithSeed(opts.Seed))
	defer func() { _ = net.Close() }()
	gen := p2p.NewIDGen(opts.Seed)

	portA, err := net.NewPort("monitor")
	if err != nil {
		return nil, err
	}
	portB, err := net.NewPort("responder")
	if err != nil {
		return nil, err
	}
	a := p2p.NewPeer("monitor", gen.New(p2p.PeerIDKind), portA)
	b := p2p.NewPeer("responder", gen.New(p2p.PeerIDKind), portB)
	defer func() { _ = a.Close() }()
	defer func() { _ = b.Close() }()
	ra := p2p.NewResolver(a)
	rb := p2p.NewResolver(b)
	rb.RegisterHandler("echo", func(_ string, payload []byte) ([]byte, error) {
		return payload, nil
	})
	a.Start()
	b.Start()

	hist := metrics.NewHistogram()
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	payload := []byte("rtt-probe")
	for i := 0; i < opts.Samples; i++ {
		start := time.Now()
		if _, err := ra.Query(ctx, b.Addr(), "echo", payload); err != nil {
			return nil, err
		}
		hist.Observe(time.Since(start))
	}
	return hist, nil
}

func runRTT(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := RTT(ctx, RTTOptions{Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("rtt", t)
	r.AddHistogram("transport", res.Transport)
	r.AddHistogram("invocation", res.Invocation)
	return r, nil
}
