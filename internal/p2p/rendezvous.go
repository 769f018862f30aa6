package p2p

import (
	"context"
	"encoding/xml"
	"fmt"
	"sort"
	"sync"
	"time"
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

// DefaultLease is how long a membership lasts without renewal.
const DefaultLease = 30 * time.Second

// NewRendezvousService attaches the rendezvous role to the peer.
func NewRendezvousService(peer *Peer, lease time.Duration) *RendezvousService {
	if lease <= 0 {
		lease = DefaultLease
	}
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

type rdvJoinDoc struct {
	XMLName xml.Name `xml:"RdvJoin"`
	GID     ID       `xml:"GID"`
	PeerAdv []byte   `xml:"PeerAdv"`
}

type rdvLeaveDoc struct {
	XMLName xml.Name `xml:"RdvLeave"`
	GID     ID       `xml:"GID"`
	PID     ID       `xml:"PID"`
}

type rdvMembersQuery struct {
	XMLName xml.Name `xml:"RdvMembers"`
	GID     ID       `xml:"GID"`
}

type rdvMembersResponse struct {
	XMLName xml.Name `xml:"RdvMembersResponse"`
	Members [][]byte `xml:"Member"`
}

func (s *RendezvousService) handleJoin(_ string, payload []byte) ([]byte, error) {
	var doc rdvJoinDoc
	if err := xml.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("bad join: %w", err)
	}
	adv := &PeerAdvertisement{}
	if err := adv.UnmarshalAdv(doc.PeerAdv); err != nil {
		return nil, fmt.Errorf("bad peer adv: %w", err)
	}
	s.mu.Lock()
	g, ok := s.groups[doc.GID]
	if !ok {
		g = make(map[ID]*memberEntry)
		s.groups[doc.GID] = g
	}
	now := s.now()
	g[adv.PID] = &memberEntry{adv: adv, expires: now.Add(s.lease)}
	advs := s.liveMembers(doc.GID, now)
	s.mu.Unlock()
	// The reply carries the live member list, so a lease renewal doubles
	// as a membership refresh at no extra message.
	return encodeMembers(advs)
}

func (s *RendezvousService) handleLeave(_ string, payload []byte) ([]byte, error) {
	var doc rdvLeaveDoc
	if err := xml.Unmarshal(payload, &doc); err != nil {
		return nil, fmt.Errorf("bad leave: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if g, ok := s.groups[doc.GID]; ok {
		delete(g, doc.PID)
	}
	return []byte("ok"), nil
}

func (s *RendezvousService) handleMembers(_ string, payload []byte) ([]byte, error) {
	var q rdvMembersQuery
	if err := xml.Unmarshal(payload, &q); err != nil {
		return nil, fmt.Errorf("bad members query: %w", err)
	}
	s.mu.Lock()
	advs := s.liveMembers(q.GID, s.now())
	s.mu.Unlock()
	return encodeMembers(advs)
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

// encodeMembers renders a member list as the reply document shared by
// rdv.members and rdv.join.
func encodeMembers(advs []*PeerAdvertisement) ([]byte, error) {
	resp := rdvMembersResponse{}
	for _, adv := range advs {
		raw, err := adv.MarshalAdv()
		if err != nil {
			continue
		}
		resp.Members = append(resp.Members, raw)
	}
	return xml.Marshal(resp)
}

// decodeMembers parses a member-list reply document.
func decodeMembers(payload []byte) ([]*PeerAdvertisement, error) {
	var resp rdvMembersResponse
	if err := xml.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	out := make([]*PeerAdvertisement, 0, len(resp.Members))
	for _, raw := range resp.Members {
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
	doc, err := xml.Marshal(rdvJoinDoc{GID: gid, PeerAdv: raw})
	if err != nil {
		return nil, fmt.Errorf("rendezvous: marshal join: %w", err)
	}
	payload, err := c.resolver.Query(ctx, c.rdvAddr, rdvJoinHandler, doc)
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
	doc, err := xml.Marshal(rdvLeaveDoc{GID: gid, PID: pid})
	if err != nil {
		return fmt.Errorf("rendezvous: marshal leave: %w", err)
	}
	if _, err := c.resolver.Query(ctx, c.rdvAddr, rdvLeaveHandler, doc); err != nil {
		return fmt.Errorf("rendezvous: leave: %w", err)
	}
	return nil
}

// Members returns the current live members of the group.
func (c *RendezvousClient) Members(ctx context.Context, gid ID) ([]*PeerAdvertisement, error) {
	q, err := xml.Marshal(rdvMembersQuery{GID: gid})
	if err != nil {
		return nil, fmt.Errorf("rendezvous: marshal members query: %w", err)
	}
	payload, err := c.resolver.Query(ctx, c.rdvAddr, rdvMembersHandler, q)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: members: %w", err)
	}
	members, err := decodeMembers(payload)
	if err != nil {
		return nil, fmt.Errorf("rendezvous: bad members response: %w", err)
	}
	return members, nil
}
