package bpeer

import (
	"math"
	"slices"
	"sync"
	"time"

	"whisper/internal/election"
	"whisper/internal/metrics"
	"whisper/internal/p2p"
	"whisper/internal/replog"
)

// member is one replica of the group as this replica knows it. Ranks are
// unique within a group, so the rank is what identifies a replica across
// its restarts; the address may change, the name is for people.
type member struct {
	name string
	addr string
	rank int64
	// replog is the member's journal-replication pipe: learned from the
	// member's own state-transfer request or by asking it once; nil
	// while unknown.
	replog *p2p.PipeAdvertisement
	// suspect marks a member that went silent: skipped by replication
	// and pinged by the detector until it is heard from again.
	suspect bool
	// heard is when this replica last had word from the member itself;
	// zero for one it only knows from the member list.
	heard time.Time
}

// group is the one place a b-peer keeps what it knows about its group:
// who the members are, which of them are alive, and — in the Bully node
// it owns — who coordinates, for which term. Nothing here reads the
// network; the state follows events the group produces anyway:
//
//   - list: every membership publish (bootstrap, then each lease
//     renewal) is answered with the group's other members (install);
//   - admit: a (re)starting replica's state-transfer request carries
//     its address and replication pipe (admit);
//   - alive: an election message, or a heartbeat from a suspect (Alive,
//     Heard);
//   - suspect: a replication miss, a pipe query, challenge or heartbeat
//     that went without an answer, or that the transport refused
//     (Silent);
//   - left: a resignation (Left).
//
// Word from a member outranks the member list's hearsay: a list neither
// revives a suspect nor undoes what was heard after it was asked for.
// What the list alone decides is who is gone: a member it no longer
// holds is dropped.
//
// The member slice is copy-on-write, so a snapshot handed out by current
// stays valid without the lock. The mutex is a leaf: no method holds it
// across a call into the election node or the network.
type group struct {
	stats *metrics.Counter
	elect *election.Node

	mu sync.Mutex
	// members always begins with this replica itself.
	members   []member
	installed time.Time
}

func newGroup(peer *p2p.Peer, self member, cfg election.Config, stats *metrics.Counter) *group {
	g := &group{stats: stats, members: []member{self}}
	cfg.OnCoordinator = func(addr string) {
		if addr != self.addr {
			stats.Add("view.adopt", 1)
		}
	}
	g.elect = election.NewNode(peer, self.rank, g, cfg)
	return g
}

// current returns the member list (self first) without touching the
// network. The slice is shared and must not be modified.
func (g *group) current() []member { //lint:hotpath
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.members
}

// Members implements election.Group: everyone not known to have left,
// suspects included — only the member itself can say it is gone. Until
// the first member list it is empty, this replica included: a round
// that the group's traffic starts before the replica has joined must
// not crown it, as its barrier would find nobody to catch up from.
// Start holds the replica's own election once it has joined and caught
// up.
func (g *group) Members() []election.Member {
	g.mu.Lock()
	members, joined := g.members, !g.installed.IsZero()
	g.mu.Unlock()
	if !joined {
		return nil
	}
	out := make([]election.Member, len(members))
	for i, m := range members {
		out[i] = election.Member{Addr: m.addr, Rank: m.rank}
	}
	return out
}

// install takes in the member list of a membership publish's answer
// that was asked for at asked (this replica is not on it). Members heard
// from since then are newer than the list — the index node may have
// answered before their join, or still show
// their previous address — and stay as they are; for the rest the list
// decides who is in the group and where, while a member still at the
// address it was known at keeps its pipe and its suspicion. A live
// member the list adds, or one heard from since the last list, may
// outrank the coordinator and is reported to the election node; one that
// has been sitting in the view — a dead replica whose lease has not run
// out — is no news.
func (g *group) install(advs []*p2p.PeerAdvertisement, asked time.Time) {
	var term uint64
	rival := int64(math.MinInt64)

	g.mu.Lock()
	next := make([]member, 0, len(advs)+1)
	for i, m := range g.members {
		if i == 0 || !m.heard.Before(asked) {
			next = append(next, m)
		}
	}
	newer := len(next)
	for _, adv := range advs {
		term = max(term, adv.Term)
		if indexRank(next[:newer], adv.Rank) >= 0 || indexAddr(next[:newer], adv.Addr) >= 0 {
			continue
		}
		m := member{name: adv.Name, addr: adv.Addr, rank: adv.Rank}
		if i := indexAddr(g.members, adv.Addr); i >= 0 && g.members[i].rank == adv.Rank {
			old := g.members[i]
			m.replog, m.suspect, m.heard = old.replog, old.suspect, old.heard
		}
		next = append(next, m)
	}
	for _, m := range next[1:] {
		i := indexAddr(g.members, m.addr)
		if !m.suspect && (i < 0 || g.members[i].rank != m.rank || !m.heard.Before(g.installed)) {
			rival = max(rival, m.rank)
		}
	}
	g.members = next
	g.installed = time.Now()
	g.mu.Unlock()

	g.stats.Add("view.refresh", 1)
	g.elect.Listed(rival, term)
}

// admit takes in a member on its own word (an announcement with its
// replication pipe, or any election message), replacing whatever entry
// held its rank or its address — a restarted replica keeps its rank and
// usually changes its address.
func (g *group) admit(m member) {
	g.mu.Lock()
	defer g.mu.Unlock()
	self := g.members[0]
	if m.rank == self.rank || m.addr == self.addr {
		return
	}
	m.suspect, m.heard = false, time.Now()
	next := make([]member, 0, len(g.members)+1)
	for _, old := range g.members {
		if old.rank == m.rank {
			if m.name == "" {
				m.name = old.name
			}
			if m.replog == nil && old.addr == m.addr {
				m.replog = old.replog
			}
		}
		if old.rank != m.rank && old.addr != m.addr {
			next = append(next, old)
		}
	}
	g.members = append(next, m)
}

// Alive implements election.Group: an election message is word from the
// member itself, and enough to believe one the member list does not
// hold yet.
func (g *group) Alive(addr string, rank int64) {
	g.admit(member{addr: addr, rank: rank})
}

// Left implements election.Group: the member at addr resigned.
func (g *group) Left(addr string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i := indexAddr(g.members, addr); i > 0 {
		g.members = slices.Delete(slices.Clone(g.members), i, i+1)
	}
}

// Silent implements p2p.Liveness and election.Group, and is the one way
// a member becomes a suspect: it stays in the view — an election still
// challenges it, the journal barrier still asks it — but out of the
// replication set until it is heard from. If it was the coordinator, an
// election starts.
func (g *group) Silent(addr string) {
	g.mu.Lock()
	i := indexAddr(g.members, addr)
	found := i > 0 && !g.members[i].suspect
	if found {
		next := slices.Clone(g.members)
		next[i].suspect = true
		g.members = next
	}
	g.mu.Unlock()
	if found {
		g.stats.Add("view.evict", 1)
	}
	g.elect.Suspect(addr)
}

// Beat implements p2p.Liveness: a follower pings its coordinator; every
// replica pings its suspects, so one that was only cut off is found
// again when the link heals.
func (g *group) Beat() []string {
	coord := g.elect.Coordinator()
	members := g.current()
	targets := make([]string, 0, 1)
	if coord != "" && coord != members[0].addr {
		targets = append(targets, coord)
	}
	for _, m := range members {
		if m.suspect && m.addr != coord {
			targets = append(targets, m.addr)
		}
	}
	return targets
}

// Stamp implements p2p.Liveness: heartbeats carry the claim this replica
// follows, which is how a lost announcement is repaired without a
// message of its own.
func (g *group) Stamp() string { return g.elect.Stamp() }

// Heard implements p2p.Liveness: a heartbeat clears the suspicion
// against its sender, and the claim it carries is adopted if it is newer
// than the one held, or decided by an election if it cannot be followed.
func (g *group) Heard(src, stamp string) {
	rank, term, ok := election.ParseStamp(stamp)

	g.mu.Lock()
	if i := indexAddr(g.members, src); i > 0 && g.members[i].suspect {
		next := slices.Clone(g.members)
		next[i].suspect, next[i].heard = false, time.Now()
		g.members = next
	}
	coord := ""
	if i := indexRank(g.members, rank); ok && i >= 0 {
		coord = g.members[i].addr
	}
	g.mu.Unlock()

	if ok && g.elect.Observe(coord, rank, term) {
		g.stats.Add("view.challenge", 1)
	}
}

// addrOf returns where the named member is, "" when it is not in the
// view.
func (g *group) addrOf(name string) string {
	for _, m := range g.current() {
		if m.name == name {
			return m.addr
		}
	}
	return ""
}

// Status is a b-peer replica's section of its peer's status answer
// (peerctl status): its group record — two replicas that disagree show
// it here — and its journal.
type Status struct {
	Name string
	// Coordinator is the address of the coordinator this replica
	// follows ("" while none), elected for Term.
	Coordinator string
	Term        uint64
	// ReplicationSet is every member other than this replica.
	ReplicationSet []MemberStatus
	// Installed is when the last member list was taken in;
	// zero before the first.
	Installed time.Time
	// View counts the group's maintenance events (view.refresh,
	// view.evict, view.adopt, view.challenge).
	View map[string]int64
	// DetectRefused and DetectTimeout count the silences the failure
	// detector reported on a refused ping and on a timeout.
	DetectRefused, DetectTimeout int64
	// Journal is nil on an unjournaled replica.
	Journal *JournalStatus
}

// MemberStatus is one member of a replication set.
type MemberStatus struct {
	Name, Addr string
	Rank       int64
	Suspect    bool
}

// JournalStatus is a replica's journal: its stats, its counters
// (replicate.miss among them) and its live entries in sequence order.
type JournalStatus struct {
	replog.Stats
	Counters map[string]int64
	Entries  []replog.Entry
}

func (b *BPeer) status() any {
	g := b.group
	st := Status{Name: b.cfg.Name, Coordinator: g.elect.Coordinator(), Term: g.elect.Term(), View: g.stats.Snapshot()}
	g.mu.Lock()
	members := g.members
	st.Installed = g.installed
	g.mu.Unlock()
	st.ReplicationSet = make([]MemberStatus, 0, len(members)-1)
	for _, m := range members[1:] {
		st.ReplicationSet = append(st.ReplicationSet, MemberStatus{Name: m.name, Addr: m.addr, Rank: m.rank, Suspect: m.suspect})
	}
	st.DetectRefused, st.DetectTimeout = b.fd.Silences()
	if j := b.journal; j != nil {
		st.Journal = &JournalStatus{Stats: j.Stats(), Counters: j.Counters().Snapshot(), Entries: j.Entries()}
	}
	return st
}

func indexRank(members []member, rank int64) int {
	for i := range members {
		if members[i].rank == rank {
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
