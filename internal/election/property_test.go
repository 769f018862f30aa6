package election

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// TestBullyAlwaysElectsHighestLiveRankProperty randomizes group size
// and the triggering node, and checks the invariant the algorithm
// guarantees: every live node converges on the highest live rank.
func TestBullyAlwaysElectsHighestLiveRankProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property macro test")
	}
	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(trial + 1)))
		n := 2 + rng.Intn(6)
		trigger := rng.Intn(n)
		t.Run(fmt.Sprintf("n=%d trigger=%d", n, trigger), func(t *testing.T) {
			c := newCluster(t, n)
			c.nodes[trigger].Trigger()
			want := c.peers[n-1].Addr()
			for i, node := range c.nodes {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				coord, err := node.WaitForCoordinator(ctx)
				cancel()
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				if coord != want {
					t.Fatalf("node %d elected %s, want %s", i, coord, want)
				}
			}
		})
	}
}

// TestBullyUnderLANLatency runs the election over the calibrated LAN
// model rather than zero latency, verifying timing assumptions hold
// with realistic delays.
func TestBullyUnderLANLatency(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.NewLANModel(1)), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	gen := p2p.NewIDGen(1)
	cfg := Config{AnswerTimeout: 50 * time.Millisecond}

	var members []Member
	var nodes []*Node
	for i := 0; i < 5; i++ {
		addr := fmt.Sprintf("lan%d", i)
		port, err := net.NewPort(addr)
		if err != nil {
			t.Fatalf("port: %v", err)
		}
		peer := p2p.NewPeer(addr, gen.New(p2p.PeerIDKind), port)
		t.Cleanup(func() { _ = peer.Close() })
		members = append(members, Member{Addr: addr, Rank: int64(i + 1)})
		node := NewNode(peer, int64(i+1), MembersFunc(func() []Member { return members }), cfg)
		t.Cleanup(node.Close)
		nodes = append(nodes, node)
		peer.Start()
	}
	start := time.Now()
	nodes[0].Trigger()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, node := range nodes {
		coord, err := node.WaitForCoordinator(ctx)
		if err != nil {
			t.Fatalf("wait: %v", err)
		}
		if coord != "lan4" {
			t.Fatalf("coordinator = %s, want lan4", coord)
		}
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("convergence took %v", elapsed)
	}
}
