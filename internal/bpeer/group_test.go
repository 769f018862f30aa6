package bpeer

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/election"
	"whisper/internal/metrics"
	"whisper/internal/p2p"
	"whisper/internal/replog"
	"whisper/internal/simnet"
)

// --- the group on its own -------------------------------------------------

func peerAdv(name, addr string, rank int64) *p2p.PeerAdvertisement {
	return &p2p.PeerAdvertisement{PID: p2p.ID("urn:" + name), Name: name, Addr: addr, Rank: rank}
}

// newTestGroup is the group of replica "a" (rank 1) on a peer that is
// never started: nothing here sends or receives.
func newTestGroup(t *testing.T) *group {
	t.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	t.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("a1")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	peer := p2p.NewPeer("a", "urn:a", port)
	t.Cleanup(func() { _ = peer.Close() })
	g := newGroup(peer, member{name: "a", addr: "a1", rank: 1}, election.Config{}, metrics.NewCounter())
	t.Cleanup(g.elect.Close)
	return g
}

func viewString(members []member) string {
	parts := make([]string, 0, len(members))
	for _, m := range members {
		s := m.name + "@" + m.addr
		if m.replog != nil {
			s += "/" + string(m.replog.PipeID)
		}
		if m.suspect {
			s += "?"
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

func TestViewInstallKeepsKnownPipesAndDropsUnlisted(t *testing.T) {
	g := newTestGroup(t)
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2), peerAdv("c", "c1", 3)}, time.Now())
	g.admit(member{name: "b", addr: "b1", rank: 2, replog: replogPipeAdv("b1", "pb")})
	g.admit(member{name: "c", addr: "c1", rank: 3, replog: replogPipeAdv("c1", "pc")})

	// b moved to a new address (its pipe there is unknown), c left.
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, time.Now())
	if got, want := viewString(g.current()), "a@a1 b@b2"; got != want {
		t.Fatalf("view = %q, want %q", got, want)
	}

	g.admit(member{name: "b", addr: "b2", rank: 2, replog: replogPipeAdv("b2", "pb2")})
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, time.Now())
	if got, want := viewString(g.current()), "a@a1 b@b2/pb2"; got != want {
		t.Fatalf("view after a renewal = %q, want %q (an unchanged member keeps its pipe)", got, want)
	}
}

// TestViewAdmitOutlivesAnOlderList: a member list asked for before a
// replica announced itself must not undo the announcement — the
// rendezvous may still show the replica's previous address, or not show
// it at all.
func TestViewAdmitOutlivesAnOlderList(t *testing.T) {
	g := newTestGroup(t)
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2)}, time.Now())

	asked := time.Now() // a lease renewal leaves now...
	g.admit(member{name: "b", addr: "b2", rank: 2, replog: replogPipeAdv("b2", "pb2")})
	// ...and its reply, built before b rejoined, arrives after the admit.
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2)}, asked)
	if got, want := viewString(g.current()), "a@a1 b@b2/pb2"; got != want {
		t.Fatalf("view = %q, want %q (the admitted address wins over the older list)", got, want)
	}

	// A list asked for after the admit is newer than it.
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, time.Now())
	if got, want := viewString(g.current()), "a@a1 b@b2/pb2"; got != want {
		t.Fatalf("view = %q, want %q", got, want)
	}

	// An election message is word from the member too, and enough to
	// believe one the rendezvous has not listed: it is known by its rank,
	// and keeps the name that rank had.
	g.Alive("c1", 3)
	g.Alive("b3", 2)
	if got, want := viewString(g.current()), "a@a1 @c1 b@b3"; got != want {
		t.Fatalf("view = %q, want %q", got, want)
	}
}

// TestViewSuspectReturnsOnlyWhenHeard: a silent member is out of the
// replication set, but still a member, until there is word from it — a
// list that still shows it (its lease has not run out) does not bring
// it back, one that no longer does drops it.
func TestViewSuspectReturnsOnlyWhenHeard(t *testing.T) {
	g := newTestGroup(t)
	list := []*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2), peerAdv("c", "c1", 3)}
	g.install(list, time.Now())
	snapshot := g.current()

	g.Silent("b1")
	g.Silent("b1") // already a suspect: not counted twice
	if got, want := viewString(g.current()), "a@a1 b@b1? c@c1"; got != want {
		t.Fatalf("view after the silence = %q, want %q", got, want)
	}
	if got := viewString(snapshot); got != "a@a1 b@b1 c@c1" {
		t.Fatalf("an earlier snapshot changed under its reader: %q", got)
	}
	if n := g.stats.Get("view.evict"); n != 1 {
		t.Fatalf("view.evict = %d, want 1", n)
	}
	if got := len(g.Members()); got != 3 {
		t.Fatalf("an election would run among %d members, want 3: a suspect is still challenged", got)
	}
	if got := g.Beat(); len(got) != 1 || got[0] != "b1" {
		t.Fatalf("detector targets = %v, want the suspect pinged until it is heard from", got)
	}

	g.install(list, time.Now())
	if got, want := viewString(g.current()), "a@a1 b@b1? c@c1"; got != want {
		t.Fatalf("view after a list that still shows the suspect = %q, want %q", got, want)
	}
	g.Heard("b1", "")
	if got, want := viewString(g.current()), "a@a1 b@b1 c@c1"; got != want {
		t.Fatalf("view after a heartbeat from the suspect = %q, want %q", got, want)
	}

	g.Silent("c1")
	g.install(list[:2], time.Now())
	if got, want := viewString(g.current()), "a@a1 b@b1"; got != want {
		t.Fatalf("view after a list without the suspect = %q, want %q", got, want)
	}
	if coord, term := g.elect.Coordinator(), g.elect.Term(); coord != "" || term != 0 {
		t.Fatalf("coordinator = %q term %d, want none and 0", coord, term)
	}
}

// TestViewHeartbeatClaims: the claim a heartbeat carries is adopted when
// it is newer than the one held and names a member this replica can
// follow, and answered with an election when it cannot.
func TestViewHeartbeatClaims(t *testing.T) {
	g := newTestGroup(t)
	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2), peerAdv("c", "c1", 3)}, time.Now())

	g.Heard("b1", "3 4") // b follows c for term 4
	if got, term := g.elect.Coordinator(), g.elect.Term(); got != "c1" || term != 4 {
		t.Fatalf("coordinator = %q term %d, want c1 term 4", got, term)
	}
	if got := g.Stamp(); got != "3 4" {
		t.Fatalf("stamp = %q, want the adopted claim passed on", got)
	}
	g.Heard("b1", "2 3") // an older claim
	g.Heard("b1", "2 4") // same term, lower rank
	if got := g.elect.Coordinator(); got != "c1" {
		t.Fatalf("coordinator = %q after stale claims, want still c1", got)
	}
	if got := g.Beat(); len(got) != 1 || got[0] != "c1" {
		t.Fatalf("detector targets = %v, want the coordinator", got)
	}
	if n := g.stats.Get("view.adopt"); n != 1 {
		t.Fatalf("view.adopt = %d, want 1", n)
	}
	g.Heard("b1", "9 5") // a rank nobody here can place
	if n := g.stats.Get("view.challenge"); n != 1 {
		t.Fatalf("view.challenge = %d, want 1", n)
	}
}

// --- the group inside a running deployment --------------------------------------

// formGroup deploys a journaling group and waits until it has settled on
// its highest-ranked replica and the elections have gone quiet (a late
// challenge re-runs the winner's election, barrier included, which the
// tests below would count).
func formGroup(t *testing.T, replicas int) (*deployment, *BPeer) {
	t.Helper()
	d := newDeployment(t, replicas)
	want := d.peers[replicas-1]
	agreed := func() bool {
		for _, p := range d.peers {
			if p.Coordinator() != want.Addr() {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		votes := d.net.Stats().PerProto[p2p.ProtoElection].Messages
		time.Sleep(100 * time.Millisecond) // > ElectionTimeout + HeartbeatTimeout of addPeer
		if agreed() && d.net.Stats().PerProto[p2p.ProtoElection].Messages == votes {
			return d, want
		}
	}
	t.Fatal("group never formed")
	return nil, nil
}

func (d *deployment) mustWrite(t *testing.T, coord *BPeer, key string) {
	t.Helper()
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", key, []byte("<p/>")); st != statusOK {
		t.Fatalf("write %s: %s %s", key, st, em)
	}
}

func requireCommitted(t *testing.T, bp *BPeer, keys ...string) {
	t.Helper()
	for _, key := range keys {
		e, ok := bp.Journal().Entry(key)
		if !ok || e.Status != replog.StatusCommitted {
			t.Fatalf("%s: journal entry %s = %+v (present=%v), want committed", bp.Name(), key, e, ok)
		}
	}
}

func (d *deployment) restartPeer(t *testing.T, bp *BPeer, addr string) {
	t.Helper()
	port, err := d.net.NewPort(addr)
	if err != nil {
		t.Fatalf("port %s: %v", addr, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := bp.Restart(ctx, port); err != nil {
		t.Fatalf("restart %s: %v", bp.Name(), err)
	}
}

// TestSettledGroupWritesStayOffTheRendezvous: in a settled group a
// journaled write is PREPARE + COMMIT to each follower and nothing else
// — the only discovery-plane traffic left is the replicas' lease
// renewals.
func TestSettledGroupWritesStayOffTheRendezvous(t *testing.T) {
	d, coord := formGroup(t, 3)
	d.mustWrite(t, coord, "warm") // resolves the followers' pipes

	const writes = 40
	const lease = 200 * time.Millisecond // addPeer's LeaseInterval
	refreshes := coord.viewStats.Get("view.refresh")
	before := d.net.Stats()
	start := time.Now()
	for i := 0; i < writes; i++ {
		d.mustWrite(t, coord, fmt.Sprintf("k%d", i))
	}
	elapsed := time.Since(start)
	after := d.net.Stats()

	// The member list arrives with the lease renewal and from nowhere
	// else: per replica per lease tick, one membership publish and one
	// advertisement publish, each a round trip, at most one tick more
	// than fit in the window.
	ticks := int64(elapsed/lease) + 1
	if got := coord.viewStats.Get("view.refresh") - refreshes; got > ticks {
		t.Errorf("%d writes in %v took in %d member lists, want at most the %d of lease renewals", writes, elapsed, got, ticks)
	}
	renewals := 2 * 2 * 3 * ticks
	plane := after.PerProto[p2p.ProtoGossip].Messages - before.PerProto[p2p.ProtoGossip].Messages
	if plane > renewals {
		t.Errorf("%d writes in %v sent %d discovery-plane messages, want at most the %d of lease renewals", writes, elapsed, plane, renewals)
	}
	if miss := coord.Journal().Counters().Get("replicate.miss"); miss != 0 {
		t.Errorf("replicate.miss = %d in a healthy group", miss)
	}
	for _, p := range d.peers {
		requireCommitted(t, p, "k0", fmt.Sprintf("k%d", writes-1))
	}
}

// TestRestartedFollowerGetsTheNextPrepare: a follower that comes back
// on a fresh address is in the coordinator's replication set before
// Restart returns — the very next write reaches it, and what it missed
// while down arrived with the state transfer.
func TestRestartedFollowerGetsTheNextPrepare(t *testing.T) {
	d, coord := formGroup(t, 3)
	f := d.peers[0]
	d.mustWrite(t, coord, "k1")
	if err := f.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	d.mustWrite(t, coord, "k2") // written while the follower is down

	d.restartPeer(t, f, "bp0-second-life")
	prepares := f.Journal().Counters().Get("apply.prepare")
	misses := coord.Journal().Counters().Get("replicate.miss")
	d.mustWrite(t, coord, "k3")

	if got := f.Journal().Counters().Get("apply.prepare") - prepares; got != 1 {
		t.Fatalf("restarted follower applied %d PREPAREs for the first write after Restart, want 1", got)
	}
	if got := coord.Journal().Counters().Get("replicate.miss") - misses; got != 0 {
		t.Fatalf("the first write after Restart missed %d followers", got)
	}
	requireCommitted(t, f, "k1", "k2", "k3")
	_, st := d.status(t, coord.Addr())
	if i := indexOf(st.ReplicationSet, "bp0"); i < 0 || st.ReplicationSet[i].Addr != "bp0-second-life" || len(st.ReplicationSet) != 2 {
		t.Errorf("coordinator's replication set = %+v, want bp0 at its new address only", st.ReplicationSet)
	}
}

// TestCrashedFollowerCostsOneMiss: the write that discovers a dead
// follower is the only one that waits on it. Later writes skip it, also
// across lease renewals that still list it, until it rejoins.
func TestCrashedFollowerCostsOneMiss(t *testing.T) {
	d, coord := formGroup(t, 3)
	f, live := d.peers[0], d.peers[1]
	d.mustWrite(t, coord, "warm")
	if err := f.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	// The member list keeps the dead follower for its 2 s lease;
	// spread the writes over several of the coordinator's 200 ms renewals.
	lists := func() int64 { return coord.viewStats.Get("view.refresh") + live.viewStats.Get("view.refresh") }
	joins, plane := lists(), d.net.Stats().PerProto[p2p.ProtoGossip].Messages
	for i := 0; i < 6; i++ {
		d.mustWrite(t, coord, fmt.Sprintf("down%d", i))
		time.Sleep(120 * time.Millisecond)
	}
	if miss := coord.Journal().Counters().Get("replicate.miss"); miss != 1 {
		t.Fatalf("replicate.miss = %d after 6 writes past a dead follower, want exactly 1", miss)
	}
	if evict := coord.viewStats.Get("view.evict"); evict != 1 {
		t.Fatalf("view.evict = %d, want 1", evict)
	}
	// The miss sends nobody to the discovery plane: its traffic is the
	// two live replicas' lease renewals (a membership and an
	// advertisement publish, a request and a reply each; one renewal of
	// each replica possibly caught between the two readings).
	joins, plane = lists()-joins, d.net.Stats().PerProto[p2p.ProtoGossip].Messages-plane
	if plane > 4*joins+8 {
		t.Fatalf("%d discovery-plane messages around the miss, want only those of %d lease renewals", plane, joins)
	}
	requireCommitted(t, live, "down0", "down5")

	d.restartPeer(t, f, f.Name()) // same address, as core.RestartPeer does on simnet
	d.mustWrite(t, coord, "back")
	requireCommitted(t, f, "warm", "down0", "down5", "back")
	if miss := coord.Journal().Counters().Get("replicate.miss"); miss != 1 {
		t.Fatalf("replicate.miss = %d after the follower rejoined, want still 1", miss)
	}
}

// TestNewCoordinatorReplicatesToSurvivorsOnly: the election barrier has
// already found the old coordinator silent, so the successor's first
// write does not wait on it even though the rendezvous still lists it.
func TestNewCoordinatorReplicatesToSurvivorsOnly(t *testing.T) {
	d, coord := formGroup(t, 3)
	d.mustWrite(t, coord, "k1")
	if err := coord.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	next := coordOf(t, d, coord.Addr())
	d.mustWrite(t, next, "k2")

	if miss := next.Journal().Counters().Get("replicate.miss"); miss != 0 {
		t.Fatalf("new coordinator replicated to the dead one: replicate.miss = %d", miss)
	}
	for _, p := range d.peers {
		if p.Running() {
			requireCommitted(t, p, "k1", "k2")
		}
	}
	_, st := d.status(t, next.Addr())
	if i := indexOf(st.ReplicationSet, coord.Name()); i < 0 || !st.ReplicationSet[i].Suspect {
		t.Errorf("successor's replication set = %+v, want the crashed coordinator suspect", st.ReplicationSet)
	}
	if st.Coordinator != next.Addr() || st.Installed.IsZero() || st.View["view.refresh"] == 0 || st.Journal.Counters["replicate.miss"] != 0 {
		t.Errorf("successor's status = %+v, want itself coordinating, a member list installed, no replication miss", st)
	}
}

// indexOf finds the named member of a replication set, -1 if absent.
func indexOf(set []MemberStatus, name string) int {
	for i, m := range set {
		if m.Name == name {
			return i
		}
	}
	return -1
}

// TestJournalStatusTellsACrashFromASilence: the detector's reports are
// counted by their evidence, so an operator reading the successor's
// journal status sees that its coordinator's port was closed (a refused
// ping), not that it went quiet (a timeout).
func TestJournalStatusTellsACrashFromASilence(t *testing.T) {
	d, coord := formGroup(t, 3)
	if err := coord.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	next := coordOf(t, d, coord.Addr())
	deadline := time.Now().Add(3 * time.Second)
	for {
		raw, st := d.status(t, next.Addr())
		if st.DetectRefused == 1 && st.DetectTimeout == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("successor's status never showed one refused ping and no timeout:\n%s", raw)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestViewElectsNobodyBeforeTheFirstList: traffic that starts a round
// before the replica has joined — a restarted replica answering the
// survivors' pings — must not crown it: its barrier would find nobody to
// catch up from. Once the first list is in, it elects as ever.
func TestViewElectsNobodyBeforeTheFirstList(t *testing.T) {
	g := newTestGroup(t)
	g.elect.Observe("", 2, 5) // a claim it cannot place starts a round
	time.Sleep(50 * time.Millisecond)
	if got := g.elect.Coordinator(); got != "" {
		t.Fatalf("coordinator = %q before the first list, want none", got)
	}

	g.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1)}, time.Now())
	g.elect.Start()
	deadline := time.Now().Add(2 * time.Second)
	for g.elect.Coordinator() != "a1" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator = %q after the first list, want a1", g.elect.Coordinator())
		}
		time.Sleep(time.Millisecond)
	}
}
