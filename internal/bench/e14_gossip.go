package bench

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// This file implements experiment E14: the cost of keeping a sharded
// rendezvous index converged. A fleet of discovery shards replicates
// the advertisement set epidemically (rumor mongering + anti-entropy,
// internal/gossip); the experiment measures, for growing advertisement
// counts, how many wire messages the epidemic needs against the flood
// baseline — the legacy dissemination, which republishes every
// advertisement to every shard each lease window because its wire
// protocol has no versions and no absolute expiry, so periodic
// re-flooding is its only refresh mechanism. A gossip entry instead
// carries (origin, version, expiry): one publish to the triple's ring
// owner and the epidemic does the rest.
//
// The second axis is the convergence scaling curve: with the
// advertisement count held fixed, how does time-to-all-shards-visible
// grow with fleet size? Rumor mongering with fanout f infects
// super-exponentially, so the curve should be ~O(log n), not O(n) —
// the property that makes large fleets affordable.

// GossipOptions configures E14.
type GossipOptions struct {
	// AdCounts are the advertisement set sizes swept for the message
	// comparison (default 1000, 10000, 100000).
	AdCounts []int
	// Shards is the fleet size for the message comparison (default 4).
	Shards int
	// Windows is how many lease windows the flood baseline refreshes
	// over (default 3): flood cost = 2 × ads × shards × windows
	// messages (request + response per republish).
	Windows int
	// PeerCounts are the fleet sizes swept for the convergence curve
	// (default 2, 4, 8, 16).
	PeerCounts []int
	// SweepAds is the advertisement count held fixed across the
	// convergence sweep (default 1000).
	SweepAds int
	// Interval is the rumor round interval for the message comparison
	// (default 2ms; the sweep uses SweepInterval).
	Interval time.Duration
	// SweepInterval is the rumor round interval for the convergence
	// sweep (default 25ms — coarse rounds quantize the measurement so
	// scheduler noise does not drown the curve).
	SweepInterval time.Duration
	// Publishers is the number of concurrent publishing workers
	// (default 8).
	Publishers int
	// Seed drives the simulated network and the engines' peer
	// selection.
	Seed int64
}

func (o *GossipOptions) applyDefaults() {
	if len(o.AdCounts) == 0 {
		o.AdCounts = []int{1000, 10000, 100000}
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.Windows <= 0 {
		o.Windows = 3
	}
	if len(o.PeerCounts) == 0 {
		o.PeerCounts = []int{2, 4, 8, 16}
	}
	if o.SweepAds <= 0 {
		o.SweepAds = 1000
	}
	if o.Interval <= 0 {
		o.Interval = 2 * time.Millisecond
	}
	if o.SweepInterval <= 0 {
		o.SweepInterval = 25 * time.Millisecond
	}
	if o.Publishers <= 0 {
		o.Publishers = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// GossipPoint is one advertisement-count measurement.
type GossipPoint struct {
	// Ads and Shards identify the configuration.
	Ads, Shards int
	// GossipMsgs / GossipBytes are the measured gossip-protocol wire
	// totals from publish start to full convergence.
	GossipMsgs, GossipBytes int64
	// FloodMsgs is the flood baseline: 2 × Ads × Shards × Windows.
	FloodMsgs int64
	// Ratio is FloodMsgs / GossipMsgs (higher = cheaper epidemic).
	Ratio float64
	// Publish is how long pushing every advertisement to its ring
	// owner took; Spread is from engine start to every shard holding
	// the full set; Convergence is the sum.
	Publish, Spread, Convergence time.Duration
}

// GossipSweepPoint is one fleet-size measurement of the convergence
// curve.
type GossipSweepPoint struct {
	// Peers is the fleet size.
	Peers int
	// Spread is the epidemic dissemination time: engines start with
	// each shard holding only the advertisements it owns, and the
	// clock stops when every shard holds all of them.
	Spread time.Duration
	// Msgs is the gossip wire traffic for the spread.
	Msgs int64
	// Rounds is the most rumor rounds any engine had completed when
	// convergence was detected — the O(log n) curve in its native
	// unit. Wall-clock spread divided by the nominal interval
	// overstates it whenever rounds run long (race detector, loaded CI
	// workers stretch the effective period).
	Rounds uint64
}

// GossipResult is the full E14 run.
type GossipResult struct {
	Points []GossipPoint
	Sweep  []GossipSweepPoint
	// SweepAds / SweepInterval echo the sweep configuration.
	SweepAds      int
	SweepInterval time.Duration
}

// gossipFleet is a standalone shard fleet on a simulated network: no
// rendezvous, no groups — just the dissemination plane under test.
type gossipFleet struct {
	net    *simnet.Network
	peers  []*p2p.Peer
	svcs   []*p2p.GossipService
	router *p2p.ShardRouter
	client *p2p.GossipClient
}

// newGossipFleet builds n shards plus one publishing client. Engines
// are built but NOT running: publishes land on their owners first, and
// run() starts the epidemic — separating publish cost from spread
// cost.
func newGossipFleet(opts GossipOptions, n int, interval time.Duration) (*gossipFleet, error) {
	f := &gossipFleet{
		net: simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(opts.Seed)),
	}
	gen := p2p.NewIDGen(opts.Seed)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("shard-%d", i)
		port, err := f.net.NewPort(name)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: shard port: %w", err)
		}
		peer := p2p.NewPeer(name, gen.New(p2p.PeerIDKind), port)
		svc, err := p2p.NewIndexNode(peer, p2p.GossipConfig{
			Seed:     opts.Seed + int64(i),
			Interval: interval,
		})
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("bench: gossip service: %w", err)
		}
		peer.Start()
		f.peers = append(f.peers, peer)
		f.svcs = append(f.svcs, svc)
		addrs[i] = peer.Addr()
	}
	f.router = p2p.NewShardRouter(addrs)
	port, err := f.net.NewPort("bench-publisher")
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("bench: publisher port: %w", err)
	}
	cli := p2p.NewPeer("bench-publisher", gen.New(p2p.PeerIDKind), port)
	cli.Start()
	f.peers = append(f.peers, cli)
	f.client = p2p.NewGossipClient(cli)
	return f, nil
}

func (f *gossipFleet) run() {
	for i, svc := range f.svcs {
		svc.SetPeers(f.router.All())
		svc.Run()
		_ = i
	}
}

func (f *gossipFleet) Close() {
	for _, svc := range f.svcs {
		svc.Stop()
	}
	for _, p := range f.peers {
		_ = p.Close()
	}
	_ = f.net.Close()
}

// publishAll pushes ads advertisements to their ring owners through
// Publishers concurrent workers, each with its own origin so versions
// stay per-origin monotone.
func (f *gossipFleet) publishAll(ctx context.Context, opts GossipOptions, ads int) error {
	var wg sync.WaitGroup
	errs := make(chan error, opts.Publishers)
	per := (ads + opts.Publishers - 1) / opts.Publishers
	for w := 0; w < opts.Publishers; w++ {
		lo, hi := w*per, (w+1)*per
		if hi > ads {
			hi = ads
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			pub := gossip.NewPublisher(fmt.Sprintf("bench-origin-%d", w), nil)
			var owners []string
			for i := lo; i < hi; i++ {
				action := fmt.Sprintf("action-%d", i)
				adv := &p2p.ServiceAdvertisement{
					SvcID:     p2p.ID(fmt.Sprintf("urn:whisper:bench:%d", i)),
					Name:      fmt.Sprintf("svc-%d", i),
					Operation: action,
				}
				raw, err := adv.MarshalAdv()
				if err != nil {
					errs <- err
					return
				}
				entry := pub.Entry(string(adv.AdvID()), raw, time.Hour)
				owners = f.router.AppendOwners(owners[:0], adv.AdvType(), "action", action)
				var lastErr error
				for _, owner := range owners {
					if _, lastErr = f.client.Publish(ctx, owner, entry); lastErr == nil {
						break
					}
				}
				if lastErr != nil {
					errs <- fmt.Errorf("publish %d: %w", i, lastErr)
					return
				}
			}
		}(w, lo, hi)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// waitConverged polls until every shard's store holds exactly ads live
// entries with identical checksums.
func (f *gossipFleet) waitConverged(ctx context.Context, ads int) error {
	for {
		converged := true
		var checksum uint64
		for i, svc := range f.svcs {
			st := svc.Engine().Store().Stats()
			if st.Live != ads {
				converged = false
				break
			}
			if i == 0 {
				checksum = st.Checksum
			} else if st.Checksum != checksum {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("bench: convergence: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// runGossipPoint measures one (ads, shards) configuration.
func runGossipPoint(ctx context.Context, opts GossipOptions, ads, shards int, interval time.Duration) (GossipPoint, error) {
	point := GossipPoint{Ads: ads, Shards: shards}
	f, err := newGossipFleet(opts, shards, interval)
	if err != nil {
		return point, err
	}
	defer f.Close()

	f.net.ResetStats()
	start := time.Now()
	if err := f.publishAll(ctx, opts, ads); err != nil {
		return point, err
	}
	point.Publish = time.Since(start)

	spreadStart := time.Now()
	f.run()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	err = f.waitConverged(waitCtx, ads)
	cancel()
	if err != nil {
		return point, err
	}
	point.Spread = time.Since(spreadStart)
	point.Convergence = point.Publish + point.Spread

	ps := f.net.Stats().PerProto[p2p.ProtoGossip]
	point.GossipMsgs = ps.Messages
	point.GossipBytes = ps.Bytes
	point.FloodMsgs = 2 * int64(ads) * int64(shards) * int64(opts.Windows)
	if point.GossipMsgs > 0 {
		point.Ratio = float64(point.FloodMsgs) / float64(point.GossipMsgs)
	}
	return point, nil
}

// runGossipSweepPoint measures the epidemic spread time for one fleet
// size, advertisement count held fixed.
func runGossipSweepPoint(ctx context.Context, opts GossipOptions, peers int) (GossipSweepPoint, error) {
	point := GossipSweepPoint{Peers: peers}
	f, err := newGossipFleet(opts, peers, opts.SweepInterval)
	if err != nil {
		return point, err
	}
	defer f.Close()

	if err := f.publishAll(ctx, opts, opts.SweepAds); err != nil {
		return point, err
	}
	f.net.ResetStats()
	start := time.Now()
	f.run()
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	err = f.waitConverged(waitCtx, opts.SweepAds)
	cancel()
	if err != nil {
		return point, err
	}
	point.Spread = time.Since(start)
	point.Msgs = f.net.Stats().PerProto[p2p.ProtoGossip].Messages
	for _, svc := range f.svcs {
		if r := svc.Engine().Stats().Rounds; r > point.Rounds {
			point.Rounds = r
		}
	}
	return point, nil
}

// Gossip runs E14 and returns the printable table plus the raw result.
func Gossip(ctx context.Context, opts GossipOptions) (*Table, *GossipResult, error) {
	opts.applyDefaults()
	result := &GossipResult{SweepAds: opts.SweepAds, SweepInterval: opts.SweepInterval}

	for _, ads := range opts.AdCounts {
		point, err := runGossipPoint(ctx, opts, ads, opts.Shards, opts.Interval)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: gossip %d ads: %w", ads, err)
		}
		result.Points = append(result.Points, point)
	}
	for _, n := range opts.PeerCounts {
		point, err := runGossipSweepPoint(ctx, opts, n)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: gossip sweep %d peers: %w", n, err)
		}
		result.Sweep = append(result.Sweep, point)
	}

	t := &Table{
		Title: fmt.Sprintf("Sharded discovery dissemination: gossip vs flood (%d shards, %d windows, interval %v, seed %d)",
			opts.Shards, opts.Windows, opts.Interval, opts.Seed),
		Columns: []string{"ads", "gossip msgs", "gossip bytes", "flood msgs", "ratio", "publish", "spread", "convergence"},
	}
	for _, p := range result.Points {
		t.AddRow(
			fmt.Sprintf("%d", p.Ads),
			fmt.Sprintf("%d", p.GossipMsgs),
			fmt.Sprintf("%d", p.GossipBytes),
			fmt.Sprintf("%d", p.FloodMsgs),
			fmt.Sprintf("%.1fx", p.Ratio),
			p.Publish.Round(time.Millisecond).String(),
			p.Spread.Round(time.Millisecond).String(),
			p.Convergence.Round(time.Millisecond).String())
	}
	t.AddNote("flood = legacy dissemination: republish every advertisement to every shard each lease window (no versions, no absolute expiry on the wire → re-flooding is its only refresh); messages count both requests and responses")
	t.AddNote("gossip = one publish per advertisement to its ring owner (entries carry origin/version/expiry), epidemic rumor + anti-entropy spread to the rest of the fleet")
	for _, p := range result.Sweep {
		t.AddRow(
			fmt.Sprintf("sweep %d peers", p.Peers),
			fmt.Sprintf("%d", p.Msgs),
			"-", "-", "-", "-",
			p.Spread.Round(time.Millisecond).String(),
			fmt.Sprintf("%d rounds", p.Rounds))
	}
	t.AddNote("sweep: %d ads pre-placed on their owners, engines started together; spread is time until every shard holds the full set, rounds the most rumor rounds any engine needed (fanout makes this ~O(log peers), interval %v per round)",
		opts.SweepAds, opts.SweepInterval)
	return t, result, nil
}

func runGossip(ctx context.Context, f Flags) (*Report, error) {
	t, res, err := Gossip(ctx, GossipOptions{PeerCounts: f.Peers, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	return GossipReport(t, res), nil
}

// GossipReport converts an E14 result into BENCH_gossip.json: the
// per-point metrics plus the acceptance rows the gate holds it to — the
// epidemic either beats the flood baseline and spreads sublinearly, or
// it does not.
func GossipReport(t *Table, result *GossipResult) *Report {
	r := NewReport("gossip", t)
	for _, p := range result.Points {
		key := fmt.Sprintf("gossip.%d", p.Ads)
		r.AddScalar(key+".msgs", "count", float64(p.GossipMsgs))
		r.AddScalar(key+".flood_msgs", "count", float64(p.FloodMsgs))
		r.AddScalar(key+".ratio", "x", p.Ratio)
		r.AddScalar(key+".convergence", "ns", float64(p.Convergence))
		r.AddScalar(key+".spread", "ns", float64(p.Spread))
		r.AddBound("epidemic beats the flood baseline on messages", key+".ratio", ">=", 10)
		// A livelock backstop, not a throughput claim: the epidemic
		// properties are the message ratio and the rounds curve, while
		// absolute convergence time scales with total data volume and
		// the host's serialization throughput (the 100k-ad point moves
		// ~500MB of entry frames, ~35s on a single core). A protocol
		// livelock — the failure mode this bound exists for — parks a
		// point at the harness's two-minute timeout, far beyond it.
		r.AddBound("publish-to-everywhere-visible is not livelocked", key+".convergence", "<=", float64(60*time.Second))
	}
	for _, p := range result.Sweep {
		key := fmt.Sprintf("sweep.%d", p.Peers)
		r.AddScalar(key+".spread", "ns", float64(p.Spread))
		r.AddScalar(key+".msgs", "count", float64(p.Msgs))
		r.AddScalar(key+".rounds", "count", float64(p.Rounds))
		// Epidemic dissemination needs ~log n infection rounds plus a
		// short coupon-collector tail; linear dissemination needs ~n
		// rounds and blows through 2 × (1 + log2 n) as the fleet grows.
		// The bound is on measured rumor rounds, the epidemic's native
		// unit: wall-clock spread over the nominal interval overstates
		// them whenever rounds run long (race detector, loaded CI
		// workers stretch the effective period).
		r.AddBound("convergence stays O(log n) rumor rounds", key+".rounds", "<=", 2*(1+math.Log2(float64(p.Peers))))
	}
	r.AddScalar("sweep.interval", "ns", float64(result.SweepInterval))
	r.AddScalar("sweep.ads", "count", float64(result.SweepAds))
	return r
}
