package p2p

import (
	"bytes"
	"context"
	"reflect"
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

// TestRendezvousCodecs: joins and leaves survive the trip and refuse every strict prefix and a trailing byte; the member
// list is a document list whose documents come back whole.
func TestRendezvousCodecs(t *testing.T) {
	adv := &PeerAdvertisement{PID: "urn:jxta:peer-1", Name: "b & <1>", Addr: "127.0.0.1:7101", Rank: -2, Term: 3}
	raw, err := adv.MarshalAdv()
	if err != nil {
		t.Fatal(err)
	}
	join := encodeJoin("urn:jxta:group-students", raw)
	if gid, doc, err := decodeJoin(join); err != nil || gid != "urn:jxta:group-students" || !bytes.Equal(doc, raw) {
		t.Errorf("join: %q, %q, %v", gid, doc, err)
	}
	leave := encodeLeave("urn:g", "urn:p")
	if gid, pid, err := decodeLeave(leave); err != nil || gid != "urn:g" || pid != "urn:p" {
		t.Errorf("leave: %q, %q, %v", gid, pid, err)
	}
	reply := encodeMembers([]*PeerAdvertisement{adv, {PID: "urn:jxta:peer-2", Addr: "a:2"}})
	members, err := decodeMembers(reply)
	if err != nil || len(members) != 2 {
		t.Fatalf("members: %+v, %v", members, err)
	}
	if got := *members[0]; got.PID != adv.PID || got.Name != adv.Name || got.Addr != adv.Addr || got.Rank != adv.Rank || got.Term != adv.Term {
		t.Errorf("first member = %+v, want %+v", got, *adv)
	}
	for name, tc := range map[string]struct {
		data   []byte
		decode func([]byte) error
	}{
		"join":    {join, func(b []byte) error { _, _, err := decodeJoin(b); return err }},
		"leave":   {leave, func(b []byte) error { _, _, err := decodeLeave(b); return err }},
		"members": {reply, func(b []byte) error { _, err := decodeMembers(b); return err }},
	} {
		for i := range tc.data {
			if tc.decode(tc.data[:i]) == nil {
				t.Errorf("%s: decoded truncated at byte %d of %d", name, i, len(tc.data))
			}
		}
		if tc.decode(append(tc.data[:len(tc.data):len(tc.data)], 0)) == nil {
			t.Errorf("%s: decoded with a trailing byte", name)
		}
	}
	// The retired XML forms are refused, not misread.
	if _, _, err := decodeJoin([]byte(`<RdvJoin><GID>urn:g</GID><PeerAdv></PeerAdv></RdvJoin>`)); err == nil {
		t.Error("decoded an XML join")
	}
	if _, err := decodeMembers([]byte(`<RdvMembersResponse></RdvMembersResponse>`)); err == nil {
		t.Error("decoded an XML member list")
	}
}

// FuzzRendezvous: a rendezvous answers whatever join it is sent, and a
// peer decodes whatever member list comes back, so arbitrary bytes must
// be an error, or a join whose reply lists the joiner, or a member list
// that encodes and decodes to itself. The corpus in testdata/fuzz holds
// joins and member lists, truncated and forged.
func FuzzRendezvous(f *testing.F) {
	EnsureBuiltinAdvTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		s := &RendezvousService{groups: make(map[ID]map[ID]*memberEntry), now: time.Now, lease: time.Hour}
		if reply, err := s.handleJoin("fuzz", data); err == nil {
			members, err := decodeMembers(reply)
			if err != nil || len(members) != 1 {
				t.Fatalf("join %q answered %d members, %v; want the joiner", data, len(members), err)
			}
		}
		members, err := decodeMembers(data)
		if err != nil {
			return
		}
		again, err := decodeMembers(encodeMembers(members))
		if err != nil {
			t.Fatalf("re-encoded member list does not decode: %v", err)
		}
		if !reflect.DeepEqual(members, again) {
			t.Fatalf("round trip changed the member list:\n first %+v\nsecond %+v", members, again)
		}
	})
}
