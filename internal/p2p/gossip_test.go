package p2p

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/simnet"
)

// gossipHarness wires n shard peers, each with a discovery index and a
// gossip service, plus one client peer for publishes.
type gossipHarness struct {
	*testHarness
	discos []*DiscoveryService
	svcs   []*GossipService
	client *GossipClient
	ctl    *Peer
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
	g.client, g.ctl = NewGossipClient(ctl), ctl
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

// TestGossipServiceStats: an index node's status answer carries its
// gossip engine and store counters.
func TestGossipServiceStats(t *testing.T) {
	g := newGossipHarness(t, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pub := gossip.NewPublisher("origin-1", nil)
	if _, err := g.client.Publish(ctx, g.peers[0].Addr(), svcEntry(pub, "urn:svc:1", "Students", time.Hour)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	answer, err := QueryStatus(ctx, NewResolverOn(g.ctl, ProtoStatus), g.peers[0].Addr())
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	var st GossipStatus
	if err := json.Unmarshal(answer["gossip"], &st); err != nil {
		t.Fatalf("decode gossip section %s: %v", answer["gossip"], err)
	}
	if st.Store.Entries != 1 || st.Store.Live != 1 || st.Store.Applied != 1 || st.Store.Checksum == 0 {
		t.Errorf("store stats = %+v, want the one published entry", st.Store)
	}
	if st.Engine.Peers != 1 {
		t.Errorf("engine stats = %+v, want one peer", st.Engine)
	}
}

// TestGossipUndecodableVersionUnindexes: a superseding version whose
// payload is no advertisement is the key's death on the index, as it is
// in the store — queries stop answering the version it superseded.
func TestGossipUndecodableVersionUnindexes(t *testing.T) {
	g := newGossipHarness(t, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	pub := gossip.NewPublisher("origin-1", nil)
	if applied, err := g.client.Publish(ctx, g.peers[0].Addr(), svcEntry(pub, "urn:svc:1", "Students", time.Hour)); err != nil || !applied {
		t.Fatalf("v1: applied=%v err=%v", applied, err)
	}
	if got := len(g.discos[0].GetLocalAdvertisements(ServiceAdvType, "Name", "Students")); got != 1 {
		t.Fatalf("v1 answered %d times, want 1", got)
	}
	garbage := pub.Entry("urn:svc:1", []byte("<not an advertisement"), time.Hour)
	if applied, err := g.client.Publish(ctx, g.peers[0].Addr(), garbage); err != nil || !applied {
		t.Fatalf("v2: applied=%v err=%v", applied, err)
	}
	for _, q := range [][3]string{{ServiceAdvType, "Name", "Students"}, {ServiceAdvType, "", ""}, {"", "", ""}} {
		if got := g.discos[0].GetLocalAdvertisements(q[0], q[1], q[2]); len(got) != 0 {
			t.Errorf("query %q answers %d advertisements after an undecodable v2, want 0", q, len(got))
		}
	}
	if s := g.discos[0].Stats(); s.Size != 0 || s.IndexKeys != 0 {
		t.Errorf("index after an undecodable v2: size %d, %d keys; want 0, 0", s.Size, s.IndexKeys)
	}
}

// TestIndexNodeRingOfOne: an index node without peers runs no gossip
// round, yet an advertisement published to it stops being answered at
// its deadline on the node's clock.
func TestIndexNodeRingOfOne(t *testing.T) {
	h := newHarness(t, 2)
	clock := newTestClock()
	node, err := NewIndexNode(h.peers[0], GossipConfig{Clock: clock, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range h.peers {
		p.Start()
	}
	node.SetPeers([]string{h.peers[0].Addr()})
	node.Run()
	t.Cleanup(node.Stop)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pub := gossip.NewPublisher("origin-1", clock)
	if _, err := NewGossipClient(h.peers[1]).Publish(ctx, h.peers[0].Addr(), svcEntry(pub, "urn:svc:1", "Students", 3*time.Second)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	visible := func() int { return len(node.Discovery().GetLocalAdvertisements(ServiceAdvType, "Name", "Students")) }
	clock.advance(3*time.Second - 1)
	if got := visible(); got != 1 {
		t.Fatalf("before its deadline the advertisement is answered %d times, want 1", got)
	}
	clock.advance(1)
	if got := visible(); got != 0 {
		t.Errorf("at its deadline the advertisement is answered %d times, want 0", got)
	}
	time.Sleep(20 * time.Millisecond) // twenty rumor intervals
	if st := node.Engine().Stats(); st.Rounds != 0 || st.Reconciles != 0 || st.QueueDepth != 0 {
		t.Errorf("peerless engine: %d rounds, %d reconciles, queue %d; want 0, 0, 0", st.Rounds, st.Reconciles, st.QueueDepth)
	}
	if st := node.Engine().Store().Stats(); st.Live != 0 || st.Expired != 1 {
		t.Errorf("store: live %d, expired %d; want 0, 1", st.Live, st.Expired)
	}
}

// FuzzServePublish feeds a fresh index node a sequence of arbitrary
// gossip.publish frames, moving its clock between them, and holds the
// index to the store after each: a type query answers exactly the
// stored bytes of every key the store holds live whose payload parses
// to the advertisement the key names, and the index holds nothing else.
// A frame whose key holds a membership after it — or held one before
// it — is answered with the stored documents of that group's other live
// members.
//
// Input: records of [clock step in seconds][uvarint frame length][frame].
func FuzzServePublish(f *testing.F) {
	EnsureBuiltinAdvTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
		defer func() { _ = net.Close() }()
		port, err := net.NewPort("index")
		if err != nil {
			t.Fatal(err)
		}
		clock := newTestClock()
		node, err := NewIndexNode(NewPeer("index", "urn:p", port), GossipConfig{Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		d, store := node.Discovery(), node.Engine().Store()
		keys := map[string]bool{}
		types := map[string]bool{ServiceAdvType: true}
		// live returns the advertisement stored live under key, if its
		// payload parses to the advertisement the key names.
		live := func(key string) (Advertisement, []byte) {
			e, ok := store.Get(key)
			if !ok || e.Deleted {
				return nil, nil
			}
			adv, err := ParseAdvertisement(e.Payload)
			if err != nil || string(adv.AdvID()) != key {
				return nil, nil
			}
			return adv, e.Payload
		}
		groupOf := func(key string) ID {
			adv, _ := live(key)
			if pa, ok := adv.(*PeerAdvertisement); ok {
				return pa.GID
			}
			return ""
		}
		for len(data) > 0 {
			clock.advance(time.Duration(data[0]) * time.Second)
			n, sz := binary.Uvarint(data[1:])
			if sz <= 0 || n > uint64(len(data)-1-sz) {
				return
			}
			frame := data[1+sz : 1+sz+int(n)]
			data = data[1+sz+int(n):]
			key, left := "", ID("")
			if e, _, err := gossip.DecodeEntry(frame); err == nil {
				keys[e.Key] = true
				key, left = e.Key, groupOf(e.Key)
				if adv, err := ParseAdvertisement(e.Payload); err == nil {
					types[adv.AdvType()] = true
				}
			}
			reply, err := node.servePublish("fuzz", frame)

			store.SweepExpired()
			want := map[string][][]byte{}
			size := 0
			var others [][]byte
			gid := cmp.Or(groupOf(key), left)
			for k := range keys {
				adv, raw := live(k)
				if adv == nil {
					continue
				}
				want[adv.AdvType()] = append(want[adv.AdvType()], raw)
				size++
				if pa, ok := adv.(*PeerAdvertisement); ok && gid != "" && pa.GID == gid && k != key {
					others = append(others, raw)
				}
			}
			if gid != "" {
				got, derr := decodeDocs(reply)
				if err != nil || derr != nil || !sameDocs(got, others) {
					t.Fatalf("membership publish of %s in %s answered %q (%v, %v), the group's other members are %q", key, gid, reply, err, derr, others)
				}
			}
			for advType := range types {
				out, err := d.answerQuery("fuzz", (&discoveryQueryDoc{Type: advType}).encode())
				if err != nil {
					t.Fatalf("type query %s: %v", advType, err)
				}
				got, err := decodeDocs(out)
				if err != nil {
					t.Fatalf("type query %s: answer does not decode: %v", advType, err)
				}
				if !sameDocs(got, want[advType]) {
					t.Fatalf("type query %s answers %q, the store holds %q", advType, got, want[advType])
				}
			}
			if s := d.Stats(); s.Size != size {
				t.Fatalf("index holds %d advertisements, the store %d", s.Size, size)
			}
		}
	})
}

// sameDocs reports whether a and b hold the same documents, in any
// order.
func sameDocs(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	count := map[string]int{}
	for _, doc := range a {
		count[string(doc)]++
	}
	for _, doc := range b {
		if count[string(doc)]--; count[string(doc)] < 0 {
			return false
		}
	}
	return true
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
	ownerOf := func(r *ShardRouter, value string) string {
		return r.AppendOwners(nil, "jxta:SvcAdv", "action", value)[0]
	}
	for i := 0; i < 200; i++ {
		value := fmt.Sprintf("action-%d", i)
		owner := ownerOf(r1, value)
		if got := ownerOf(r2, value); got != owner {
			t.Fatalf("ownership depends on membership order: %s vs %s", owner, got)
		}
		owners := r1.AppendOwners(nil, "jxta:SvcAdv", "action", value)
		if len(owners) != 2 || owners[0] != owner || owners[1] == owner {
			t.Fatalf("replica set %v, want owner-led pair", owners)
		}
		after := ownerOf(shrunk, value)
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
