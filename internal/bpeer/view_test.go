package bpeer

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/metrics"
	"whisper/internal/p2p"
	"whisper/internal/replog"
)

// --- the view on its own --------------------------------------------------

func peerAdv(name, addr string, rank int64) *p2p.PeerAdvertisement {
	return &p2p.PeerAdvertisement{PID: p2p.ID("urn:" + name), Name: name, Addr: addr, Rank: rank}
}

func viewString(members []member) string {
	parts := make([]string, 0, len(members))
	for _, m := range members {
		s := m.name + "@" + m.addr
		if m.replog != nil {
			s += "/" + string(m.replog.PipeID)
		}
		parts = append(parts, s)
	}
	return strings.Join(parts, " ")
}

func TestViewInstallKeepsKnownPipesAndDropsUnlisted(t *testing.T) {
	v := newGroupView(nil, "g", metrics.NewCounter())
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2), peerAdv("c", "c1", 3)}, v.generation())
	v.setReplog("b1", replogPipeAdv("b1", "pb"))
	v.setReplog("c1", replogPipeAdv("c1", "pc"))

	// b moved to a new address (its pipe there is unknown), c left.
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, v.generation())
	members, settled := v.Current()
	if got, want := viewString(members), "a@a1 b@b2"; got != want || !settled {
		t.Fatalf("view = %q settled=%v, want %q settled", got, settled, want)
	}

	v.setReplog("b2", replogPipeAdv("b2", "pb2"))
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, v.generation())
	if got, want := viewString(v.members), "a@a1 b@b2/pb2"; got != want {
		t.Fatalf("view after a renewal = %q, want %q (an unchanged member keeps its pipe)", got, want)
	}
}

// TestViewAdmitOutlivesAnOlderList: a member list requested before a
// replica announced itself must not undo the announcement — the
// rendezvous may still show the replica's previous address, or not show
// it at all.
func TestViewAdmitOutlivesAnOlderList(t *testing.T) {
	v := newGroupView(nil, "g", metrics.NewCounter())
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2)}, v.generation())

	requested := v.generation() // a lease renewal leaves now...
	v.admit(member{name: "b", addr: "b2", rank: 2, replog: replogPipeAdv("b2", "pb2")})
	// ...and its reply, built before b rejoined, arrives after the admit.
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2)}, requested)
	if got, want := viewString(v.members), "b@b2/pb2 a@a1"; got != want {
		t.Fatalf("view = %q, want %q (the admitted address wins over the older list)", got, want)
	}

	// A list requested after the admit is newer than it.
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b2", 2)}, v.generation())
	if got, want := viewString(v.members), "a@a1 b@b2/pb2"; got != want {
		t.Fatalf("view = %q, want %q", got, want)
	}
}

func TestViewEvictUnsettlesUntilNextList(t *testing.T) {
	stats := metrics.NewCounter()
	v := newGroupView(nil, "g", stats)
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1), peerAdv("b", "b1", 2)}, v.generation())
	snapshot, _ := v.Current()

	v.evict("b1")
	v.evict("b1") // already gone: not counted twice
	members, settled := v.Current()
	if got := viewString(members); got != "a@a1" || settled {
		t.Fatalf("view after evict = %q settled=%v, want a@a1 unsettled", got, settled)
	}
	if got := viewString(snapshot); got != "a@a1 b@b1" {
		t.Fatalf("an earlier snapshot changed under its reader: %q", got)
	}
	if n := stats.Get("view.evict"); n != 1 {
		t.Fatalf("view.evict = %d, want 1", n)
	}
	v.install([]*p2p.PeerAdvertisement{peerAdv("a", "a1", 1)}, v.generation())
	if _, settled := v.Current(); !settled {
		t.Fatal("a fresh list must settle the view")
	}
}

// --- the view inside a running group --------------------------------------

// formGroup deploys a journaling group and waits until it has settled on
// its highest-ranked replica and the elections have gone quiet (a late
// challenge re-runs the winner's election, member-list read and barrier
// included, which the tests below would count). Formation itself
// occasionally wedges on a split vote (ROADMAP open item 1), which is
// not what these tests are about: a wedged attempt is abandoned to
// t.Cleanup and retried.
func formGroup(t *testing.T, replicas int) (*deployment, *BPeer) {
	t.Helper()
	for attempt := 0; attempt < 4; attempt++ {
		d := newDeployment(t, replicas)
		want := d.peers[replicas-1]
		settled := func() bool {
			for _, p := range d.peers {
				if p.Coordinator() != want.Addr() {
					return false
				}
			}
			return true
		}
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			votes := d.net.Stats().PerProto[p2p.ProtoElection].Messages
			time.Sleep(100 * time.Millisecond) // > ElectionTimeout + HeartbeatTimeout of addPeer
			if settled() && d.net.Stats().PerProto[p2p.ProtoElection].Messages == votes {
				return d, want
			}
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
// — the only rendezvous traffic left is the replicas' lease renewals.
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

	if got := coord.viewStats.Get("view.refresh") - refreshes; got != 0 {
		t.Errorf("%d writes read the rendezvous member list %d times, want 0", writes, got)
	}
	// One rdv.join round trip per replica per lease tick, at most one
	// tick more than fit in the window.
	renewals := int64(2 * 3 * (int(elapsed/lease) + 1))
	rdv := after.PerProto[p2p.ProtoRdv].Messages - before.PerProto[p2p.ProtoRdv].Messages
	if rdv > renewals {
		t.Errorf("%d writes in %v sent %d rendezvous messages, want at most the %d of lease renewals", writes, elapsed, rdv, renewals)
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
	if status := coord.view.status(coord.Addr()); !strings.Contains(status, "bp0@bp0-second-life") || strings.Contains(status, "bp0@bp0 ") {
		t.Errorf("coordinator view = %s, want bp0 at its new address only", status)
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

	// The rendezvous keeps listing the dead follower for its 2 s lease;
	// spread the writes over several of the coordinator's 200 ms renewals.
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
	status, err := next.answerReplogStatus("", nil)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	for _, want := range []string{"replication_set=[", "view_age=", "view.refresh=", "view.evict=", "replicate.miss=0"} {
		if !strings.Contains(string(status), want) {
			t.Errorf("journal status lacks %q:\n%s", want, status)
		}
	}
}
