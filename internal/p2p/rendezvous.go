package p2p

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"whisper/internal/wire"
)

// RendezvousService runs on a designated peer and maintains the group
// membership index: edge peers join groups with a lease and query the
// rendezvous for the current member set. Combined with the index node
// on the same peer (NewIndexNode, which edge peers publish
// advertisements to), this reproduces the JXTA rendezvous/SRDI role.
type RendezvousService struct {
	peer     *Peer
	resolver *Resolver

	mu     sync.Mutex
	groups map[ID]map[ID]*memberEntry
	now    func() time.Time
	lease  time.Duration
}

type memberEntry struct {
	adv     *PeerAdvertisement
	expires time.Time
}

// Rendezvous resolver handler names.
const (
	rdvJoinHandler    = "rdv.join"
	rdvLeaveHandler   = "rdv.leave"
	rdvMembersHandler = "rdv.members"
)

// NewRendezvousService attaches the rendezvous role to the peer; a
// membership lasts lease without renewal.
func NewRendezvousService(peer *Peer, lease time.Duration) *RendezvousService {
	s := &RendezvousService{
		peer:     peer,
		resolver: NewResolverOn(peer, ProtoRdv),
		groups:   make(map[ID]map[ID]*memberEntry),
		now:      time.Now,
		lease:    lease,
	}
	s.resolver.RegisterHandler(rdvJoinHandler, s.handleJoin)
	s.resolver.RegisterHandler(rdvLeaveHandler, s.handleLeave)
	s.resolver.RegisterHandler(rdvMembersHandler, s.handleMembers)
	return s
}

// The rendezvous messages are binary (layout: DESIGN.md §5): a join is
// the group ID and the joiner's peer advertisement document, a leave
// the group and peer IDs, a members query the group ID alone; both join
// and members are answered with the live members' documents as a
// document list (encodeDocs).

func encodeJoin(gid ID, peerAdv []byte) []byte {
	return wire.AppendBytes(wire.AppendString(nil, string(gid)), peerAdv)
}

func decodeJoin(payload []byte) (gid ID, peerAdv []byte, err error) {
	r := wire.NewReader(payload)
	gid, peerAdv = ID(r.Str()), r.Bytes()
	return gid, peerAdv, r.Done()
}

func encodeLeave(gid, pid ID) []byte {
	return wire.AppendString(wire.AppendString(nil, string(gid)), string(pid))
}

func decodeLeave(payload []byte) (gid, pid ID, err error) {
	r := wire.NewReader(payload)
	gid, pid = ID(r.Str()), ID(r.Str())
	return gid, pid, r.Done()
}

func (s *RendezvousService) handleJoin(_ string, payload []byte) ([]byte, error) {
	gid, peerAdv, err := decodeJoin(payload)
	if err != nil {
		return nil, fmt.Errorf("bad join: %w", err)
	}
	adv := &PeerAdvertisement{}
	if err := adv.UnmarshalAdv(peerAdv); err != nil {
		return nil, fmt.Errorf("bad peer adv: %w", err)
	}
	s.mu.Lock()
	g, ok := s.groups[gid]
	if !ok {
		g = make(map[ID]*memberEntry)
		s.groups[gid] = g
	}
	now := s.now()
	g[adv.PID] = &memberEntry{adv: adv, expires: now.Add(s.lease)}
	advs := s.liveMembers(gid, now)
	s.mu.Unlock()
	// The reply carries the live member list, so a lease renewal doubles
	// as a membership refresh at no extra message.
	return encodeMembers(advs), nil
}

func (s *RendezvousService) handleLeave(_ string, payload []byte) ([]byte, error) {
	gid, pid, err := decodeLeave(payload)
	if err != nil {
		return nil, fmt.Errorf("bad leave: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.groups[gid]; ok {
		delete(g, pid)
	}
	return []byte("ok"), nil
}

func (s *RendezvousService) handleMembers(_ string, payload []byte) ([]byte, error) {
	s.mu.Lock()
	advs := s.liveMembers(ID(payload), s.now())
	s.mu.Unlock()
	return encodeMembers(advs), nil
}

// liveMembers sweeps the group's expired leases and returns the
// surviving members' advertisements sorted by peer ID. Caller holds
// s.mu; the advertisements are immutable once stored, so the slice may
// be used after the lock is released.
func (s *RendezvousService) liveMembers(gid ID, now time.Time) []*PeerAdvertisement {
	g := s.groups[gid]
	advs := make([]*PeerAdvertisement, 0, len(g))
	for pid, e := range g {
		if e.expires.Before(now) {
			delete(g, pid)
			continue
		}
		advs = append(advs, e.adv)
	}
	sort.Slice(advs, func(i, j int) bool { return advs[i].PID < advs[j].PID })
	return advs
}

// encodeMembers renders a member list as the reply shared by
// rdv.members and rdv.join.
func encodeMembers(advs []*PeerAdvertisement) []byte {
	docs := make([][]byte, 0, len(advs))
	for _, adv := range advs {
		raw, err := adv.MarshalAdv()
		if err != nil {
			continue
		}
		docs = append(docs, raw)
	}
	return encodeDocs(docs)
}

// decodeMembers parses a member-list reply; a member document that does
// not parse is skipped.
func decodeMembers(payload []byte) ([]*PeerAdvertisement, error) {
	docs, err := decodeDocs(payload)
	if err != nil {
		return nil, err
	}
	out := make([]*PeerAdvertisement, 0, len(docs))
	for _, raw := range docs {
		adv := &PeerAdvertisement{}
		if err := adv.UnmarshalAdv(raw); err != nil {
			continue
		}
		out = append(out, adv)
	}
	return out, nil
}

// MemberCount reports the live member count of a group (testing and
// introspection).
func (s *RendezvousService) MemberCount(gid ID) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.liveMembers(gid, s.now()))
}

// RendezvousClient is the edge-peer side of the rendezvous protocol.
type RendezvousClient struct {
	resolver *Resolver
	rdvAddr  string
}

// NewRendezvousClient attaches a rendezvous client to the peer,
// pointed at the rendezvous peer's address.
func NewRendezvousClient(peer *Peer, rdvAddr string) *RendezvousClient {
	return &RendezvousClient{resolver: NewResolverOn(peer, ProtoRdv), rdvAddr: rdvAddr}
}

// RendezvousAddr returns the configured rendezvous address.
func (c *RendezvousClient) RendezvousAddr() string { return c.rdvAddr }

// Join registers the peer advertisement as a member of the group and
// returns the group's live members as of the registration (the joiner
// included). Renew by calling Join again before the lease expires.
func (c *RendezvousClient) Join(ctx context.Context, gid ID, self *PeerAdvertisement) ([]*PeerAdvertisement, error) {
	raw, err := self.MarshalAdv()
	if err != nil {
		return nil, fmt.Errorf("rendezvous: marshal self adv: %w", err)
	}
	payload, err := c.resolver.Query(ctx, c.rdvAddr, rdvJoinHandler, encodeJoin(gid, raw))
	if err != nil {
		return nil, fmt.Errorf("rendezvous: join: %w", err)
	}
	members, err := decodeMembers(payload)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: bad join response: %w", err)
	}
	return members, nil
}

// Leave removes the peer from the group.
func (c *RendezvousClient) Leave(ctx context.Context, gid, pid ID) error {
	if _, err := c.resolver.Query(ctx, c.rdvAddr, rdvLeaveHandler, encodeLeave(gid, pid)); err != nil {
		return fmt.Errorf("rendezvous: leave: %w", err)
	}
	return nil
}

// Members returns the current live members of the group.
func (c *RendezvousClient) Members(ctx context.Context, gid ID) ([]*PeerAdvertisement, error) {
	payload, err := c.resolver.Query(ctx, c.rdvAddr, rdvMembersHandler, []byte(gid))
	if err != nil {
		return nil, fmt.Errorf("rendezvous: members: %w", err)
	}
	members, err := decodeMembers(payload)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: bad members response: %w", err)
	}
	return members, nil
}
