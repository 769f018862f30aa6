package p2p

import (
	"context"
	"testing"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/simnet"
)

// memberBed is one index node on a test clock (peer 0) and member
// peers 1..n-1 publishing their memberships to it on the same clock.
type memberBed struct {
	*testHarness
	clock *testClock
	index *GossipService
	ring  *ShardRouter
	pubs  map[ID]*gossip.Publisher
	cli   map[ID]*GossipClient
	disco *DiscoveryClient
}

func newMemberBed(t *testing.T, n int) *memberBed {
	t.Helper()
	b := &memberBed{testHarness: newHarness(t, n), clock: newTestClock(),
		pubs: map[ID]*gossip.Publisher{}, cli: map[ID]*GossipClient{}}
	index, err := NewIndexNode(b.peers[0], GossipConfig{Clock: b.clock})
	if err != nil {
		t.Fatalf("index node: %v", err)
	}
	b.index, b.ring = index, NewShardRouter([]string{b.peers[0].Addr()})
	for _, p := range b.peers[1:] {
		b.pubs[p.ID()] = gossip.NewPublisher(p.Name(), b.clock)
		b.cli[p.ID()] = NewGossipClient(p)
	}
	lookup := b.addPeer(t, "lookup")
	b.disco = NewDiscoveryClient(lookup)
	for _, p := range append(b.peers, lookup) {
		p.Start()
	}
	index.Run()
	return b
}

// join publishes peer i's membership of gid for lease and returns the
// other members the answer lists.
func (b *memberBed) join(t *testing.T, i int, gid ID, lease time.Duration) []*PeerAdvertisement {
	t.Helper()
	p := b.peers[i]
	adv := p.Advertisement()
	adv.GID, adv.Rank = gid, int64(i)
	raw, err := adv.MarshalAdv()
	if err != nil {
		t.Fatal(err)
	}
	return b.publish(t, p, b.pubs[p.ID()].Entry(string(p.ID()), raw, lease))
}

// leave tombstones peer i's membership and returns who the answer says
// is left.
func (b *memberBed) leave(t *testing.T, i int) []*PeerAdvertisement {
	t.Helper()
	p := b.peers[i]
	return b.publish(t, p, b.pubs[p.ID()].Tombstone(string(p.ID())))
}

func (b *memberBed) publish(t *testing.T, p *Peer, e gossip.Entry) []*PeerAdvertisement {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	others, err := b.cli[p.ID()].PublishMember(ctx, b.ring.All(), e) // a ring of one
	if err != nil {
		t.Fatalf("membership publish of %s: %v", p.Name(), err)
	}
	return others
}

func (b *memberBed) members(t *testing.T, gid ID) []*PeerAdvertisement {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	members, err := b.disco.Members(ctx, b.ring, gid)
	if err != nil {
		t.Fatalf("members of %s: %v", gid, err)
	}
	return members
}

func addrs(advs []*PeerAdvertisement) []string {
	out := make([]string, len(advs))
	for i, a := range advs {
		out[i] = a.Addr
	}
	return out
}

// TestRendezvousJoinMembers: a join is answered with the group's other
// members, and the member list is every member, highest rank first.
func TestRendezvousJoinMembers(t *testing.T) {
	b := newMemberBed(t, 3)
	gid := ID("urn:jxta:group-students")
	if first := b.join(t, 1, gid, time.Hour); len(first) != 0 {
		t.Errorf("first join answered %v, want nobody else", addrs(first))
	}
	if second := b.join(t, 2, gid, time.Hour); len(second) != 1 || second[0].Addr != b.peers[1].Addr() || second[0].GID != gid {
		t.Errorf("second join answered %+v, want the first member", second)
	}
	// A renewal is answered the same way and stores one entry per member.
	if again := b.join(t, 2, gid, time.Hour); len(again) != 1 {
		t.Errorf("renewal answered %v, want the first member", addrs(again))
	}
	got := b.members(t, gid)
	if len(got) != 2 || got[0].Addr != b.peers[2].Addr() || got[1].Addr != b.peers[1].Addr() {
		t.Errorf("members = %v, want %s then %s", addrs(got), b.peers[2].Addr(), b.peers[1].Addr())
	}
}

// TestRendezvousLeave: a leave is a tombstone; its answer is who is
// left, and the member list no longer holds the leaver.
func TestRendezvousLeave(t *testing.T) {
	b := newMemberBed(t, 3)
	gid := ID("urn:g")
	b.join(t, 1, gid, time.Hour)
	b.join(t, 2, gid, time.Hour)
	if left := b.leave(t, 2); len(left) != 1 || left[0].Addr != b.peers[1].Addr() {
		t.Errorf("first leave answered %v, want the other member", addrs(left))
	}
	if left := b.leave(t, 1); len(left) != 0 {
		t.Errorf("last leave answered %v, want nobody", addrs(left))
	}
	if got := b.members(t, gid); len(got) != 0 {
		t.Errorf("members after both left = %v", addrs(got))
	}
}

// TestRendezvousLeaseExpiry: a membership lasts the lease its member
// published it with, on the index node's clock, and a renewal brings it
// back.
func TestRendezvousLeaseExpiry(t *testing.T) {
	b := newMemberBed(t, 2)
	gid := ID("urn:g")
	b.join(t, 1, gid, 50*time.Millisecond)
	if n := len(b.members(t, gid)); n != 1 {
		t.Fatalf("member count = %d, want 1", n)
	}
	b.clock.advance(50 * time.Millisecond)
	if n := len(b.members(t, gid)); n != 0 {
		t.Errorf("member count at the lease's end = %d, want 0", n)
	}
	b.join(t, 1, gid, 50*time.Millisecond)
	if n := len(b.members(t, gid)); n != 1 {
		t.Errorf("member count after renewal = %d, want 1", n)
	}
}

// TestRendezvousJoinReplySweepsExpiredLeases: the member list in a join
// answer goes through the same expiry sweep as a lookup, so a renewing
// peer never learns of a member whose lease ran out.
func TestRendezvousJoinReplySweepsExpiredLeases(t *testing.T) {
	b := newMemberBed(t, 3)
	gid := ID("urn:g")
	b.join(t, 1, gid, 50*time.Millisecond)
	b.clock.advance(40 * time.Millisecond) // peer 1's lease still has 10ms
	if others := b.join(t, 2, gid, 50*time.Millisecond); len(others) != 1 {
		t.Fatalf("join inside peer 1's lease answered %v, want peer 1", addrs(others))
	}
	b.clock.advance(40 * time.Millisecond) // peer 1 expired, peer 2 has 10ms
	if others := b.join(t, 2, gid, 50*time.Millisecond); len(others) != 0 {
		t.Fatalf("renewal after peer 1's lease ran out answered %v, want nobody", addrs(others))
	}
	if st := b.index.Engine().Store().Stats(); st.Live != 1 || st.Expired != 1 {
		t.Errorf("store: live %d, expired %d; want 1, 1", st.Live, st.Expired)
	}
}

// TestRendezvousMembersOfUnknownGroup: a group nobody joined has no
// members, and a member of another group is not one of them.
func TestRendezvousMembersOfUnknownGroup(t *testing.T) {
	b := newMemberBed(t, 2)
	b.join(t, 1, "urn:other", time.Hour)
	if got := b.members(t, "urn:nope"); len(got) != 0 {
		t.Errorf("members = %v, want none", addrs(got))
	}
}

// TestMembersFallBackToTheFleet: a lookup asks the member list's owners
// first; when they are down, or do not know the group yet, it asks the
// whole fleet.
func TestMembersFallBackToTheFleet(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	fleet := []string{"s0", "s1", "s2", "s3"}
	nodes := map[string]*GossipService{}
	for _, addr := range fleet {
		port, err := net.NewPort(addr)
		if err != nil {
			t.Fatal(err)
		}
		peer := NewPeer(addr, ID("urn:jxta:peer-"+addr), port)
		t.Cleanup(func() { _ = peer.Close() })
		if nodes[addr], err = NewIndexNode(peer, GossipConfig{}); err != nil {
			t.Fatal(err)
		}
		peer.Start() // no SetPeers: nothing spreads but what the test puts
	}
	port, err := net.NewPort("lookup")
	if err != nil {
		t.Fatal(err)
	}
	lookup := NewPeer("lookup", "urn:jxta:peer-lookup", port)
	t.Cleanup(func() { _ = lookup.Close() })
	disco := NewDiscoveryClient(lookup)
	lookup.Start()

	ring, gid := NewShardRouter(fleet), ID("urn:g")
	owners := ring.MemberOwners(gid)
	var stranger string // a node that does not own the member list
	for _, addr := range fleet {
		if addr != owners[0] && addr != owners[1] {
			stranger = addr
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := nodes[stranger].Discovery().Publish(&PeerAdvertisement{PID: "urn:jxta:peer-m", GID: gid, Addr: "m"}, time.Hour); err != nil {
		t.Fatal(err)
	}
	got, err := disco.Members(ctx, ring, gid)
	if err != nil || len(got) != 1 || got[0].Addr != "m" {
		t.Fatalf("owners that know of no member: members %v, %v; want the stranger's", addrs(got), err)
	}
	for _, owner := range owners {
		if err := nodes[owner].peer.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := disco.Members(ctx, ring, gid); err != nil || len(got) != 1 {
		t.Fatalf("owners down: members %v, %v; want the stranger's", addrs(got), err)
	}
}
