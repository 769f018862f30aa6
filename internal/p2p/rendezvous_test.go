package p2p

import (
	"context"
	"testing"
	"time"
)

func TestRendezvousJoinMembers(t *testing.T) {
	h := newHarness(t, 3)
	rdvPeer := h.peers[0]
	rdv := NewRendezvousService(rdvPeer, time.Hour)
	c1 := NewRendezvousClient(h.peers[1], rdvPeer.Addr())
	c2 := NewRendezvousClient(h.peers[2], rdvPeer.Addr())
	for _, p := range h.peers {
		p.Start()
	}
	gid := ID("urn:jxta:group-students")

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	first, err := c1.Join(ctx, gid, h.peers[1].Advertisement())
	if err != nil {
		t.Fatalf("join 1: %v", err)
	}
	if len(first) != 1 || first[0].Addr != h.peers[1].Addr() {
		t.Errorf("first join reply = %v, want the joiner alone", first)
	}
	second, err := c2.Join(ctx, gid, h.peers[2].Advertisement())
	if err != nil {
		t.Fatalf("join 2: %v", err)
	}
	if len(second) != 2 {
		t.Errorf("second join reply lists %d members, want 2", len(second))
	}
	if n := rdv.MemberCount(gid); n != 2 {
		t.Errorf("member count = %d, want 2", n)
	}

	members, err := c1.Members(ctx, gid)
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	if len(members) != 2 {
		t.Fatalf("members = %d, want 2", len(members))
	}
	addrs := map[string]bool{}
	for _, m := range members {
		addrs[m.Addr] = true
	}
	if !addrs[h.peers[1].Addr()] || !addrs[h.peers[2].Addr()] {
		t.Errorf("member addrs = %v", addrs)
	}
}

func TestRendezvousLeave(t *testing.T) {
	h := newHarness(t, 2)
	rdv := NewRendezvousService(h.peers[0], time.Hour)
	c := NewRendezvousClient(h.peers[1], h.peers[0].Addr())
	for _, p := range h.peers {
		p.Start()
	}
	gid := ID("urn:g")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Join(ctx, gid, h.peers[1].Advertisement()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if err := c.Leave(ctx, gid, h.peers[1].ID()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if n := rdv.MemberCount(gid); n != 0 {
		t.Errorf("member count after leave = %d, want 0", n)
	}
}

func TestRendezvousLeaseExpiry(t *testing.T) {
	h := newHarness(t, 2)
	rdv := NewRendezvousService(h.peers[0], 50*time.Millisecond)
	now := time.Now()
	rdv.now = func() time.Time { return now }
	c := NewRendezvousClient(h.peers[1], h.peers[0].Addr())
	for _, p := range h.peers {
		p.Start()
	}
	gid := ID("urn:g")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Join(ctx, gid, h.peers[1].Advertisement()); err != nil {
		t.Fatalf("join: %v", err)
	}
	if n := rdv.MemberCount(gid); n != 1 {
		t.Fatalf("member count = %d, want 1", n)
	}
	now = now.Add(time.Second) // lease expired
	if n := rdv.MemberCount(gid); n != 0 {
		t.Errorf("member count after lease expiry = %d, want 0", n)
	}
	// Rejoin renews.
	if _, err := c.Join(ctx, gid, h.peers[1].Advertisement()); err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if n := rdv.MemberCount(gid); n != 1 {
		t.Errorf("member count after rejoin = %d, want 1", n)
	}
}

// TestRendezvousJoinReplySweepsExpiredLeases: the member list in a join
// reply goes through the same expiry sweep as rdv.members, so a renewing
// peer never learns of a member whose lease ran out.
func TestRendezvousJoinReplySweepsExpiredLeases(t *testing.T) {
	h := newHarness(t, 3)
	rdv := NewRendezvousService(h.peers[0], 50*time.Millisecond)
	now := time.Now()
	rdv.now = func() time.Time { return now }
	c1 := NewRendezvousClient(h.peers[1], h.peers[0].Addr())
	c2 := NewRendezvousClient(h.peers[2], h.peers[0].Addr())
	for _, p := range h.peers {
		p.Start()
	}
	gid := ID("urn:g")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c1.Join(ctx, gid, h.peers[1].Advertisement()); err != nil {
		t.Fatalf("join 1: %v", err)
	}
	now = now.Add(40 * time.Millisecond) // peer 1's lease still has 10ms
	members, err := c2.Join(ctx, gid, h.peers[2].Advertisement())
	if err != nil {
		t.Fatalf("join 2: %v", err)
	}
	if len(members) != 2 {
		t.Fatalf("join reply inside the lease lists %d members, want 2", len(members))
	}
	now = now.Add(40 * time.Millisecond) // peer 1 expired, peer 2 has 10ms
	members, err = c2.Join(ctx, gid, h.peers[2].Advertisement())
	if err != nil {
		t.Fatalf("renew 2: %v", err)
	}
	if len(members) != 1 || members[0].Addr != h.peers[2].Addr() {
		t.Fatalf("join reply after peer 1's lease ran out = %v, want peer 2 alone", members)
	}
	if n := rdv.MemberCount(gid); n != 1 {
		t.Errorf("member count = %d, want 1 (the sweep deleted the expired entry)", n)
	}
}

func TestRendezvousMembersOfUnknownGroup(t *testing.T) {
	h := newHarness(t, 2)
	NewRendezvousService(h.peers[0], time.Hour)
	c := NewRendezvousClient(h.peers[1], h.peers[0].Addr())
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	members, err := c.Members(ctx, "urn:nope")
	if err != nil {
		t.Fatalf("members: %v", err)
	}
	if len(members) != 0 {
		t.Errorf("members = %d, want 0", len(members))
	}
}
