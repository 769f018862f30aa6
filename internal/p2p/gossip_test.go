package p2p

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/gossip"
)

// gossipHarness wires n shard peers, each with a discovery index and a
// gossip service, plus one client peer for publishes.
type gossipHarness struct {
	*testHarness
	discos []*DiscoveryService
	svcs   []*GossipService
	client *GossipClient
}

func newGossipHarness(t *testing.T, n int) *gossipHarness {
	t.Helper()
	g := &gossipHarness{testHarness: newHarness(t, n)}
	addrs := make([]string, n)
	for i, p := range g.peers {
		addrs[i] = p.Addr()
	}
	for i, p := range g.peers {
		svc, err := NewIndexNode(p, GossipConfig{
			Seed:     int64(i + 1),
			Interval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("index node %d: %v", i, err)
		}
		g.discos = append(g.discos, svc.Discovery())
		g.svcs = append(g.svcs, svc)
		p.Start()
	}
	for _, svc := range g.svcs {
		svc.SetPeers(addrs)
		svc.Run()
	}
	t.Cleanup(func() {
		for _, svc := range g.svcs {
			svc.Stop()
		}
	})
	ctl := g.addPeer(t, "ctl")
	ctl.Start()
	g.client = NewGossipClient(ctl)
	return g
}

func svcEntry(pub *gossip.Publisher, id, name string, lifetime time.Duration) gossip.Entry {
	adv := &ServiceAdvertisement{SvcID: ID(id), Name: name}
	raw, err := adv.MarshalAdv()
	if err != nil {
		panic(err)
	}
	return pub.Entry(id, raw, lifetime)
}

// waitVisible polls until the advertisement is queryable on every
// shard's discovery index (the tentpole's visibility invariant).
func (g *gossipHarness) waitVisible(t *testing.T, name string, want bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, d := range g.discos {
			visible := len(d.GetLocalAdvertisements(ServiceAdvType, "Name", name)) > 0
			if visible != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("advertisement %q visible=%v not reached on all shards", name, want)
}

// TestGossipServiceSpreadsPublish: one publish at one shard becomes
// visible on every shard's ordinary discovery index, and the graceful
// tombstone removes it everywhere.
func TestGossipServiceSpreadsPublish(t *testing.T) {
	g := newGossipHarness(t, 3)
	pub := gossip.NewPublisher("origin-1", nil)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	applied, err := g.client.Publish(ctx, g.peers[0].Addr(), svcEntry(pub, "urn:svc:1", "Students", time.Hour))
	if err != nil {
		t.Fatalf("publish: %v", err)
	}
	if !applied {
		t.Fatal("fresh publish reported stale")
	}
	g.waitVisible(t, "Students", true)

	// Tombstone at a DIFFERENT shard: the epidemic must still beat the
	// stale live copies everywhere (no resurrection).
	if _, err := g.client.Publish(ctx, g.peers[2].Addr(), pub.Tombstone("urn:svc:1")); err != nil {
		t.Fatalf("tombstone: %v", err)
	}
	g.waitVisible(t, "Students", false)
}

// TestGossipServiceRejectsStaleVersion: a shard holding version v
// answers "stale" to any publish with version <= v.
func TestGossipServiceRejectsStaleVersion(t *testing.T) {
	g := newGossipHarness(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pub := gossip.NewPublisher("origin-1", nil)
	old := svcEntry(pub, "urn:svc:1", "Students", time.Hour)
	fresh := svcEntry(pub, "urn:svc:1", "Students", time.Hour)
	if applied, err := g.client.Publish(ctx, g.peers[0].Addr(), fresh); err != nil || !applied {
		t.Fatalf("fresh publish: applied=%v err=%v", applied, err)
	}
	if applied, err := g.client.Publish(ctx, g.peers[0].Addr(), old); err != nil || applied {
		t.Fatalf("stale publish: applied=%v err=%v, want rejected", applied, err)
	}
}

// TestGossipServiceStats: the stats handler answers sorted key=value
// lines with the counters peerctl renders.
func TestGossipServiceStats(t *testing.T) {
	g := newGossipHarness(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pub := gossip.NewPublisher("origin-1", nil)
	if _, err := g.client.Publish(ctx, g.peers[0].Addr(), svcEntry(pub, "urn:svc:1", "Students", time.Hour)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	out, err := g.client.Stats(ctx, g.peers[0].Addr())
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, key := range []string{"rounds=", "entries=", "live=", "checksum=", "queue_depth=", "peers="} {
		if !strings.Contains(out, key) {
			t.Errorf("stats report missing %q:\n%s", key, out)
		}
	}
}

// TestShardRouterOwnership: ownership is deterministic, the replica
// set has k distinct members led by the owner, and removing a shard
// only moves the triples it owned.
func TestShardRouterOwnership(t *testing.T) {
	addrs := []string{"shard-a", "shard-b", "shard-c", "shard-d"}
	r1 := NewShardRouter(addrs)
	r2 := NewShardRouter([]string{"shard-d", "shard-c", "shard-b", "shard-a"})

	moved := 0
	shrunk := NewShardRouter(addrs[:3])
	for i := 0; i < 200; i++ {
		value := fmt.Sprintf("action-%d", i)
		owner := r1.Owner("jxta:SvcAdv", "action", value)
		if got := r2.Owner("jxta:SvcAdv", "action", value); got != owner {
			t.Fatalf("ownership depends on membership order: %s vs %s", owner, got)
		}
		owners := r1.AppendOwners(nil, "jxta:SvcAdv", "action", value)
		if len(owners) != 2 || owners[0] != owner || owners[1] == owner {
			t.Fatalf("replica set %v, want owner-led pair", owners)
		}
		after := shrunk.Owner("jxta:SvcAdv", "action", value)
		if owner == "shard-d" {
			if after == "shard-d" {
				t.Fatal("removed shard still owns a triple")
			}
		} else if after != owner {
			moved++
		}
	}
	// Consistent hashing: triples not owned by the removed shard
	// mostly stay put.
	if moved > 20 {
		t.Errorf("%d/200 unrelated triples moved on shard removal", moved)
	}
}
