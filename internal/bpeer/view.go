package bpeer

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"whisper/internal/metrics"
	"whisper/internal/p2p"
)

// member is one replica of the group as a b-peer's view knows it.
type member struct {
	name string
	addr string
	rank int64
	// replog is the member's journal-replication pipe: learned from the
	// member's own state-transfer request or by asking it once; nil
	// while unknown.
	replog *p2p.PipeAdvertisement
	// unanswered records that the member did not answer when asked for
	// its pipe. Replication skips it until the next member list gives it
	// a fresh entry, so a dead member still listed at the rendezvous
	// costs one lookup per lease renewal, not one per write.
	unanswered bool
	// admitted is the view generation at which the member announced
	// itself with a state-transfer request; zero for members learned
	// from a rendezvous list. See install.
	admitted uint64
}

// groupView is a b-peer's local copy of its group's membership. The
// coordinator replicates every journaled write to the members it lists,
// so reading it must not touch the network: Current returns the cached
// list, and the list is kept correct by events the group produces
// anyway —
//
//   - every lease renewal's rdv.join reply carries the member list
//     (install);
//   - a (re)starting replica's state-transfer request carries its
//     address and replication pipe, and the member serving it admits
//     the requester before answering (admit);
//   - a replication miss evicts the silent member and makes the next
//     replicate re-read the rendezvous (evict, then Refresh);
//   - an election reads the rendezvous and installs what it read
//     (Refresh).
//
// The member slice is copy-on-write: every mutation installs a new
// slice, so a snapshot handed out by Current stays valid without the
// lock. The mutex is a leaf — no method holds it across a network call
// or a call into another package.
type groupView struct {
	rdv   *p2p.RendezvousClient
	gid   p2p.ID
	stats *metrics.Counter

	mu      sync.Mutex
	members []member
	// gen counts admits; a member list requested at generation g cannot
	// know about members admitted after g.
	gen uint64
	// settled is false from an eviction until the next list is installed.
	settled   bool
	installed time.Time
}

func newGroupView(rdv *p2p.RendezvousClient, gid p2p.ID, stats *metrics.Counter) *groupView {
	return &groupView{rdv: rdv, gid: gid, stats: stats}
}

// Current returns the cached member list (self included once this
// replica has joined) without touching the network. settled is false
// when a member was evicted since the last list was installed: the
// caller should Refresh before relying on the list. The slice is shared
// and must not be modified.
func (v *groupView) Current() (members []member, settled bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.members, v.settled
}

// Refresh reads the member list from the rendezvous and installs it.
func (v *groupView) Refresh(ctx context.Context) ([]member, error) {
	since := v.generation()
	advs, err := v.rdv.Members(ctx, v.gid)
	if err != nil {
		return nil, err
	}
	v.stats.Add("view.refresh", 1)
	return v.install(advs, since), nil
}

// generation returns the admit count; read it before requesting a
// member list and pass it to install with the reply.
func (v *groupView) generation() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.gen
}

// install replaces the view with a member list the rendezvous produced
// for a request issued at generation since. Members admitted after the
// request was issued are newer than the list — the rendezvous may have
// answered before their join, or still show their previous address — so
// they override the list's entry of the same name. A listed member keeps
// its known replication pipe while its address is unchanged.
func (v *groupView) install(advs []*p2p.PeerAdvertisement, since uint64) []member {
	v.mu.Lock()
	defer v.mu.Unlock()
	next := make([]member, 0, len(advs)+1)
	for _, m := range v.members {
		if m.admitted > since {
			next = append(next, m)
		}
	}
	newer := len(next)
	for _, adv := range advs {
		if indexName(next[:newer], adv.Name) >= 0 {
			continue
		}
		m := member{name: adv.Name, addr: adv.Addr, rank: adv.Rank}
		if i := indexAddr(v.members, adv.Addr); i >= 0 && v.members[i].name == adv.Name {
			m.replog = v.members[i].replog
		}
		next = append(next, m)
	}
	v.members = next
	v.settled = true
	v.installed = time.Now()
	return next
}

// admit adds a member that announced itself (name, address, rank and
// replication pipe), replacing any entry under the same name or address
// — a restarted replica keeps its name and usually changes its address.
func (v *groupView) admit(m member) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.gen++
	m.admitted = v.gen
	next := make([]member, 0, len(v.members)+1)
	for _, old := range v.members {
		if old.name != m.name && old.addr != m.addr {
			next = append(next, old)
		}
	}
	v.members = append(next, m)
}

// evict drops the member at addr after it missed a replicated entry and
// unsettles the view, so the next replicate re-reads the rendezvous.
func (v *groupView) evict(addr string) {
	v.mu.Lock()
	i := indexAddr(v.members, addr)
	if i >= 0 {
		next := make([]member, 0, len(v.members)-1)
		next = append(next, v.members[:i]...)
		v.members = append(next, v.members[i+1:]...)
		v.settled = false
	}
	v.mu.Unlock()
	if i >= 0 {
		v.stats.Add("view.evict", 1)
	}
}

// setReplog records the outcome of asking the member at addr for its
// replication pipe; a nil adv means it did not answer.
func (v *groupView) setReplog(addr string, adv *p2p.PipeAdvertisement) {
	v.mu.Lock()
	defer v.mu.Unlock()
	i := indexAddr(v.members, addr)
	if i < 0 {
		return
	}
	next := append([]member(nil), v.members...)
	next[i].replog = adv
	next[i].unanswered = adv == nil
	v.members = next
}

// status renders the view for bpeer.replog.status: every member other
// than self with its place in the replication set, the age of the last
// installed list and the maintenance counters.
func (v *groupView) status(self string) string {
	v.mu.Lock()
	members, settled, installed := v.members, v.settled, v.installed
	v.mu.Unlock()

	var sb strings.Builder
	sb.WriteString("replication_set=[")
	n := 0
	for _, m := range members {
		if m.addr == self {
			continue
		}
		if n > 0 {
			sb.WriteString(" ")
		}
		n++
		sb.WriteString(m.name + "@" + m.addr)
		switch {
		case m.unanswered:
			sb.WriteString("(unanswered)")
		case m.replog == nil:
			sb.WriteString("(unresolved)")
		}
	}
	age := "never"
	if !installed.IsZero() {
		age = time.Since(installed).Round(time.Millisecond).String()
	}
	fmt.Fprintf(&sb, "] view_age=%s settled=%v view.refresh=%d view.evict=%d",
		age, settled, v.stats.Get("view.refresh"), v.stats.Get("view.evict"))
	return sb.String()
}

func indexName(members []member, name string) int {
	for i := range members {
		if members[i].name == name {
			return i
		}
	}
	return -1
}

func indexAddr(members []member, addr string) int {
	for i := range members {
		if members[i].addr == addr {
			return i
		}
	}
	return -1
}
