package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"whisper/internal/election"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// ElectionOptions configures experiment E8, the ablation explaining
// the paper's "the time needed to elect a new coordinator is
// considerably high": Bully message count and convergence time as the
// group grows.
type ElectionOptions struct {
	// GroupSizes sweeps the number of participants; nil selects
	// {2, 4, 8, 16}.
	GroupSizes []int
	// Trials averages each point.
	Trials int
	// Seed drives randomness.
	Seed int64
}

func (o *ElectionOptions) applyDefaults() {
	if len(o.GroupSizes) == 0 {
		o.GroupSizes = []int{2, 4, 8, 16}
	}
	if o.Trials <= 0 {
		o.Trials = 3
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

// ElectionPoint is one sweep point.
type ElectionPoint struct {
	Peers        int
	AvgMessages  float64
	AvgBytes     float64
	AvgConverge  time.Duration
	WorstCaseMsg int64
}

// ElectionCost runs E8: for each group size it wires bare Bully nodes
// on the LAN model, triggers the election from the LOWEST-ranked node
// (the worst case: the full challenge cascade) and counts election
// messages until every node agrees.
func ElectionCost(ctx context.Context, opts ElectionOptions) (*Table, []ElectionPoint, error) {
	opts.applyDefaults()
	var points []ElectionPoint
	for _, n := range opts.GroupSizes {
		point := ElectionPoint{Peers: n}
		for trial := 0; trial < opts.Trials; trial++ {
			msgs, bytes, converge, err := electionTrial(ctx, n, opts.Seed+int64(trial))
			if err != nil {
				return nil, nil, fmt.Errorf("bench: election n=%d: %w", n, err)
			}
			point.AvgMessages += float64(msgs)
			point.AvgBytes += float64(bytes)
			point.AvgConverge += converge
			if msgs > point.WorstCaseMsg {
				point.WorstCaseMsg = msgs
			}
		}
		point.AvgMessages /= float64(opts.Trials)
		point.AvgBytes /= float64(opts.Trials)
		point.AvgConverge /= time.Duration(opts.Trials)
		points = append(points, point)
	}

	t := &Table{
		Title:   fmt.Sprintf("Bully election cost vs. group size (triggered by lowest rank, %d trials)", opts.Trials),
		Columns: []string{"peers", "avg msgs", "worst msgs", "avg convergence"},
	}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Peers), fmt.Sprintf("%.1f", p.AvgMessages),
			fmt.Sprintf("%d", p.WorstCaseMsg), p.AvgConverge.String())
	}
	t.AddNote("the lowest-rank trigger cascades challenges through every higher rank: O(n²) messages worst case — the election component of the paper's worst-case RTT")
	return t, points, nil
}

func electionTrial(ctx context.Context, n int, seed int64) (msgs, bytes int64, converge time.Duration, err error) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.NewLANModel(seed)), simnet.WithSeed(seed))
	defer func() { _ = net.Close() }()
	gen := p2p.NewIDGen(seed)

	var mu sync.Mutex
	members := make([]election.Member, 0, n)
	membersFn := election.MembersFunc(func() []election.Member {
		mu.Lock()
		defer mu.Unlock()
		return append([]election.Member(nil), members...)
	})

	nodes := make([]*election.Node, 0, n)
	peers := make([]*p2p.Peer, 0, n)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("e%02d", i)
		port, perr := net.NewPort(addr)
		if perr != nil {
			return 0, 0, 0, perr
		}
		peer := p2p.NewPeer(addr, gen.New(p2p.PeerIDKind), port)
		node := election.NewNode(peer, int64(i+1), membersFn, election.Config{
			AnswerTimeout: 50 * time.Millisecond,
		})
		peer.Start()
		peers = append(peers, peer)
		nodes = append(nodes, node)
		mu.Lock()
		members = append(members, election.Member{Addr: addr, Rank: int64(i + 1)})
		mu.Unlock()
	}
	defer func() {
		for _, p := range peers {
			_ = p.Close()
		}
	}()

	net.ResetStats()
	start := time.Now()
	nodes[0].Trigger() // lowest rank: full cascade

	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	want := peers[n-1].Addr()
	for i, node := range nodes {
		coord, werr := node.WaitForCoordinator(ctx)
		if werr != nil {
			return 0, 0, 0, werr
		}
		if coord != want {
			return 0, 0, 0, fmt.Errorf("node %s elected %s, want %s", peers[i].Addr(), coord, want)
		}
	}
	converge = time.Since(start)
	// Let stragglers drain before reading counters.
	time.Sleep(20 * time.Millisecond)
	stats := net.Stats()
	el := stats.PerProto[p2p.ProtoElection]
	return el.Messages, el.Bytes, converge, nil
}

func runElection(ctx context.Context, f Flags) (*Report, error) {
	t, points, err := ElectionCost(ctx, ElectionOptions{GroupSizes: f.Peers, Trials: f.Trials, Seed: f.Seed})
	if err != nil {
		return nil, err
	}
	r := NewReport("election", t)
	for _, p := range points {
		key := fmt.Sprintf("%dpeers", p.Peers)
		r.AddScalar(key+".avg_messages", "count", p.AvgMessages)
		r.AddScalar(key+".avg_converge", "ns", float64(p.AvgConverge))
	}
	return r, nil
}
