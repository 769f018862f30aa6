package election

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// cluster wires n Bully nodes on a zero-latency simulated network.
type cluster struct {
	net   *simnet.Network
	peers []*p2p.Peer
	nodes []*Node

	mu    sync.Mutex
	alive map[string]bool
}

func newCluster(t *testing.T, n int) *cluster {
	t.Helper()
	c := &cluster{
		net:   simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		alive: make(map[string]bool),
	}
	t.Cleanup(func() { _ = c.net.Close() })
	gen := p2p.NewIDGen(1)
	cfg := Config{AnswerTimeout: 50 * time.Millisecond}
	for i := 0; i < n; i++ {
		addr := string(rune('a' + i))
		port, err := c.net.NewPort(addr)
		if err != nil {
			t.Fatalf("port: %v", err)
		}
		peer := p2p.NewPeer(addr, gen.New(p2p.PeerIDKind), port)
		t.Cleanup(func() { _ = peer.Close() })
		node := NewNode(peer, int64(i+1), MembersFunc(c.members), cfg)
		t.Cleanup(node.Close)
		c.peers = append(c.peers, peer)
		c.nodes = append(c.nodes, node)
		c.alive[addr] = true
		peer.Start()
	}
	return c
}

// members returns the live member view.
func (c *cluster) members() []Member {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Member
	for i, p := range c.peers {
		if c.alive[p.Name()] {
			out = append(out, Member{Addr: p.Addr(), Rank: int64(i + 1)})
		}
	}
	return out
}

func (c *cluster) kill(t *testing.T, i int) {
	t.Helper()
	c.mu.Lock()
	c.alive[c.peers[i].Name()] = false
	c.mu.Unlock()
	c.nodes[i].Close()
	if err := c.peers[i].Close(); err != nil {
		t.Fatalf("close peer %d: %v", i, err)
	}
}

func waitCoord(t *testing.T, n *Node, d time.Duration) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	coord, err := n.WaitForCoordinator(ctx)
	if err != nil {
		t.Fatalf("wait for coordinator: %v", err)
	}
	return coord
}

// settle waits until every live node follows want.
func (c *cluster) settle(t *testing.T, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for i, n := range c.nodes {
		addr := c.peers[i].Addr()
		c.mu.Lock()
		alive := c.alive[addr]
		c.mu.Unlock()
		for alive && n.Coordinator() != want {
			if time.Now().After(deadline) {
				t.Fatalf("node %s coordinator = %q, want %s", addr, n.Coordinator(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func TestBullyElectsHighestRank(t *testing.T) {
	c := newCluster(t, 4)
	c.nodes[0].Trigger() // lowest rank starts the election

	want := c.peers[3].Addr() // rank 4 must win
	for i, n := range c.nodes {
		if got := waitCoord(t, n, 3*time.Second); got != want {
			t.Errorf("node %d coordinator = %s, want %s", i, got, want)
		}
	}
	if !c.nodes[3].IsCoordinator() {
		t.Error("highest-ranked node does not believe it is coordinator")
	}
	if c.nodes[0].IsCoordinator() {
		t.Error("lowest-ranked node believes it is coordinator")
	}
}

func TestBullySingleNode(t *testing.T) {
	c := newCluster(t, 1)
	c.nodes[0].Trigger()
	if got := waitCoord(t, c.nodes[0], time.Second); got != c.peers[0].Addr() {
		t.Errorf("coordinator = %s, want self", got)
	}
}

func TestBullyReElectionAfterCoordinatorCrash(t *testing.T) {
	c := newCluster(t, 3)
	c.nodes[0].Trigger()
	c.settle(t, c.peers[2].Addr())

	// Crash the coordinator; the survivors' detectors report it silent
	// and they must elect rank 2.
	dead := c.peers[2].Addr()
	c.kill(t, 2)
	for _, n := range c.nodes[:2] {
		n.Suspect(dead)
	}

	want := c.peers[1].Addr()
	c.settle(t, want)
}

func TestBullyCascadingFailures(t *testing.T) {
	c := newCluster(t, 4)
	c.nodes[0].Trigger()
	c.settle(t, c.peers[3].Addr())

	// Kill ranks 4 then 3; rank 2 must end up coordinator.
	dead := c.peers[3].Addr()
	c.kill(t, 3)
	c.kill(t, 2)
	for _, n := range c.nodes[:2] {
		n.Suspect(dead)
	}

	want := c.peers[1].Addr()
	c.settle(t, want)
}

func TestBullyConcurrentTriggers(t *testing.T) {
	c := newCluster(t, 5)
	// Everyone triggers at once.
	for _, n := range c.nodes {
		n.Trigger()
	}
	want := c.peers[4].Addr()
	for i, n := range c.nodes {
		if got := waitCoord(t, n, 5*time.Second); got != want {
			t.Errorf("node %d coordinator = %s, want %s", i, got, want)
		}
	}
}

func TestBullyCoordinatorChangeCallback(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	t.Cleanup(func() { _ = net.Close() })
	gen := p2p.NewIDGen(1)
	port, err := net.NewPort("solo")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	peer := p2p.NewPeer("solo", gen.New(p2p.PeerIDKind), port)
	t.Cleanup(func() { _ = peer.Close() })
	peer.Start()

	got := make(chan string, 1)
	n := NewNode(peer, 1,
		MembersFunc(func() []Member { return []Member{{Addr: "solo", Rank: 1}} }),
		Config{AnswerTimeout: 20 * time.Millisecond, OnCoordinator: func(a string) { got <- a }})
	t.Cleanup(n.Close)
	n.Trigger()
	select {
	case addr := <-got:
		if addr != "solo" {
			t.Errorf("callback addr = %s", addr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnCoordinator never invoked")
	}
}

func TestBullyTriggerIsIdempotentWhileElecting(t *testing.T) {
	c := newCluster(t, 2)
	for i := 0; i < 10; i++ {
		c.nodes[0].Trigger()
	}
	want := c.peers[1].Addr()
	if got := waitCoord(t, c.nodes[0], 3*time.Second); got != want {
		t.Errorf("coordinator = %s, want %s", got, want)
	}
}

// TestBullySuspectedCoordinatorIsForgotten: a coordinator reported
// silent is given up at once and challenged; if it was alive after all
// it is followed again only on announcing itself for a later term — the
// claim it held stays behind as the floor.
func TestBullySuspectedCoordinatorIsForgotten(t *testing.T) {
	c := newCluster(t, 2)
	c.nodes[0].Trigger()
	coord := waitCoord(t, c.nodes[0], 3*time.Second)
	term := c.nodes[0].Term()
	c.nodes[0].Suspect(c.peers[0].Addr()) // not the coordinator: no effect
	if got := c.nodes[0].Coordinator(); got != coord {
		t.Fatalf("coordinator = %q after an unrelated suspicion, want %s", got, coord)
	}
	c.nodes[0].Suspect(coord)
	if got := c.nodes[0].Coordinator(); got != "" {
		t.Fatalf("coordinator = %q right after it was reported silent, want none", got)
	}
	if c.nodes[0].Observe(coord, 2, term) || c.nodes[0].Coordinator() != "" {
		t.Fatal("the claim just given up on was taken up again, want it ignored")
	}
	if got := waitCoord(t, c.nodes[0], 3*time.Second); got != coord {
		t.Fatalf("coordinator = %s, want the challenged %s back", got, coord)
	}
	if got := c.nodes[0].Term(); got <= term {
		t.Fatalf("term = %d after the re-announcement, want above %d", got, term)
	}
}

func TestBullyClosedNodeDoesNotElect(t *testing.T) {
	c := newCluster(t, 1)
	c.nodes[0].Close()
	c.nodes[0].Trigger()
	time.Sleep(100 * time.Millisecond)
	if c.nodes[0].Coordinator() != "" {
		t.Error("closed node became coordinator")
	}
}

func TestBullyResignTriggersImmediateHandOff(t *testing.T) {
	c := newCluster(t, 3)
	c.nodes[0].Trigger()
	first := waitCoord(t, c.nodes[0], 3*time.Second)
	if first != c.peers[2].Addr() {
		t.Fatalf("first coordinator = %s, want %s", first, c.peers[2].Addr())
	}

	// The coordinator resigns gracefully: it drops out of the member
	// view and challenges the survivors, so a new election starts
	// without any failure detection.
	c.mu.Lock()
	c.alive[c.peers[2].Name()] = false
	c.mu.Unlock()
	c.nodes[2].Resign()

	want := c.peers[1].Addr()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.nodes[0].Coordinator() == want && c.nodes[1].Coordinator() == want {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, n := range c.nodes[:2] {
		if got := n.Coordinator(); got != want {
			t.Errorf("node %d coordinator = %s after resignation, want %s", i, got, want)
		}
	}
	if got := c.nodes[2].Coordinator(); got == c.peers[2].Addr() {
		t.Error("resigned node still believes it is coordinator")
	}
}

func TestBullyResignOnNonCoordinatorIsNoOp(t *testing.T) {
	c := newCluster(t, 2)
	c.nodes[0].Trigger()
	want := waitCoord(t, c.nodes[0], 3*time.Second)

	c.nodes[0].Resign() // rank 1 is not the coordinator
	time.Sleep(100 * time.Millisecond)
	if got := c.nodes[0].Coordinator(); got != want {
		t.Errorf("coordinator = %s after no-op resign, want %s", got, want)
	}
	if got := c.nodes[1].Coordinator(); got != want {
		t.Errorf("node 1 coordinator = %s after no-op resign, want %s", got, want)
	}
}

// TestBullyBarrierRunsBeforeCoordinatorship verifies the catch-up
// barrier contract: a winning node runs Barrier before any node (itself
// included) observes it as coordinator, and a failing barrier abandons
// the victory and re-runs the election until the barrier succeeds.
func TestBullyBarrierRunsBeforeCoordinatorship(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	gen := p2p.NewIDGen(1)
	port, err := net.NewPort("solo")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	peer := p2p.NewPeer("solo", gen.New(p2p.PeerIDKind), port)
	t.Cleanup(func() { _ = peer.Close() })

	var mu sync.Mutex
	calls := 0
	var coordDuringBarrier string
	var node *Node
	barrier := func() error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		coordDuringBarrier = node.Coordinator()
		if calls == 1 {
			return context.DeadlineExceeded // first catch-up attempt fails
		}
		return nil
	}
	node = NewNode(peer, 1, MembersFunc(func() []Member {
		return []Member{{Addr: peer.Addr(), Rank: 1}}
	}), Config{AnswerTimeout: 20 * time.Millisecond, Barrier: barrier})
	t.Cleanup(node.Close)
	peer.Start()

	node.Trigger()
	if got := waitCoord(t, node, 3*time.Second); got != peer.Addr() {
		t.Fatalf("coordinator = %s, want self", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls < 2 {
		t.Fatalf("barrier ran %d time(s), want the failed attempt re-triggered", calls)
	}
	if coordDuringBarrier != "" {
		t.Fatalf("coordinator already %q while barrier ran, want barrier before coordinatorship", coordDuringBarrier)
	}
}

// TestBullyWinningRoundAnswersTriggersItOverlapped: a trigger that
// arrives while a round is still running (here: during the barrier) is
// satisfied when that round crowns this node and announces it — a second
// round would only repeat the barrier's state transfer and broadcast a
// duplicate announcement. A trigger after the crown still runs a round.
func TestBullyWinningRoundAnswersTriggersItOverlapped(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("solo")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	peer := p2p.NewPeer("solo", p2p.NewIDGen(1).New(p2p.PeerIDKind), port)
	t.Cleanup(func() { _ = peer.Close() })

	var node *Node
	rounds := make(chan struct{}, 8)
	barrier := func() error {
		node.Trigger() // a challenge lands mid-round
		rounds <- struct{}{}
		return nil
	}
	node = NewNode(peer, 1, MembersFunc(func() []Member {
		return []Member{{Addr: peer.Addr(), Rank: 1}}
	}), Config{AnswerTimeout: 20 * time.Millisecond, Barrier: barrier})
	t.Cleanup(node.Close)
	peer.Start()

	node.Trigger()
	waitCoord(t, node, 3*time.Second)
	<-rounds
	select {
	case <-rounds:
		t.Fatal("the round that crowned the node was run again for a trigger it had already answered")
	case <-time.After(200 * time.Millisecond):
	}
	node.Trigger()
	select {
	case <-rounds:
	case <-time.After(2 * time.Second):
		t.Fatal("a trigger after the crown did not start a round")
	}
}

// staleRig is one Bully node ("b", rank 2) between two bare peers that
// only send and record election messages: "a" (rank 1) and "c" (rank 3).
type staleRig struct {
	a, b, c *p2p.Peer
	node    *Node

	mu         sync.Mutex
	aHeard     []string // kinds of election messages peer a received from b
	challenges int      // challenges peer c received from b
	cAnswers   bool     // whether c answers them
	members    []Member // what the node's member view returns
}

func newStaleRig(t *testing.T, cfg Config) *staleRig {
	t.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	gen := p2p.NewIDGen(1)
	r := &staleRig{}
	for _, slot := range []struct {
		addr string
		peer **p2p.Peer
	}{{"a", &r.a}, {"b", &r.b}, {"c", &r.c}} {
		port, err := net.NewPort(slot.addr)
		if err != nil {
			t.Fatalf("port: %v", err)
		}
		*slot.peer = p2p.NewPeer(slot.addr, gen.New(p2p.PeerIDKind), port)
	}
	r.a.Handle(p2p.ProtoElection, func(msg simnet.Message) {
		r.mu.Lock()
		r.aHeard = append(r.aHeard, msg.Kind)
		r.mu.Unlock()
	})
	r.c.Handle(p2p.ProtoElection, func(msg simnet.Message) {
		r.mu.Lock()
		answer := r.cAnswers && msg.Kind == kindElection
		if msg.Kind == kindElection {
			r.challenges++
		}
		r.mu.Unlock()
		if answer {
			r.say(t, r.c, kindAnswer, 3, 0)
		}
	})
	r.members = []Member{{Addr: "a", Rank: 1}, {Addr: "b", Rank: 2}}
	cfg.AnswerTimeout = 20 * time.Millisecond
	r.node = NewNode(r.b, 2, MembersFunc(func() []Member {
		r.mu.Lock()
		defer r.mu.Unlock()
		return append([]Member(nil), r.members...)
	}), cfg)
	t.Cleanup(r.node.Close)
	for _, p := range []*p2p.Peer{r.a, r.b, r.c} {
		p.Start()
		t.Cleanup(func() { _ = p.Close() })
	}
	return r
}

// say sends b one election message from a bare peer.
func (r *staleRig) say(t *testing.T, from *p2p.Peer, kind string, rank int64, term uint64) {
	t.Helper()
	err := from.Send("b", simnet.Message{
		Proto: p2p.ProtoElection,
		Kind:  kind,
		Headers: map[string]string{
			hdrRank: strconv.FormatInt(rank, 10),
			hdrTerm: strconv.FormatUint(term, 10),
		},
	})
	if err != nil {
		t.Errorf("%s from %s: %v", kind, from.Addr(), err)
	}
}

func (r *staleRig) admit(m Member) {
	r.mu.Lock()
	r.members = append(r.members, m)
	r.mu.Unlock()
}

func (r *staleRig) announcedItself() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, kind := range r.aHeard {
		if kind == kindCoordinator {
			return true
		}
	}
	return false
}

// TestBullyOvertakenAnnouncementIsDropped: every election message is
// handled on its own goroutine, so the announcement of a node that
// crowned itself in the same term as a higher-ranked one can arrive
// after the higher one's. Applying it then leaves this node following a
// peer that itself follows the higher-ranked coordinator — nothing
// fails, no detector fires, the group stays split (the formation wedge
// of ROADMAP open item 1). By (term, rank) it is simply not newer, and
// neither is a late broadcast for a term already past.
func TestBullyOvertakenAnnouncementIsDropped(t *testing.T) {
	rig := newStaleRig(t, Config{})
	rig.admit(Member{Addr: "c", Rank: 3})
	rig.say(t, rig.c, kindCoordinator, 3, 2)
	if got := waitCoord(t, rig.node, 3*time.Second); got != "c" {
		t.Fatalf("coordinator = %s, want c", got)
	}
	// An announcement is only considered from a rank at or above the
	// node's own, so a speaks with rank 2 here.
	rig.say(t, rig.a, kindCoordinator, 2, 2)
	time.Sleep(50 * time.Millisecond) // well past AnswerTimeout, had it started a round
	if got, term := rig.node.Coordinator(), rig.node.Term(); got != "c" || term != 2 {
		t.Fatalf("coordinator = %s term %d after the overtaken announcement, want still c term 2", got, term)
	}

	rig.say(t, rig.a, kindCoordinator, 3, 1) // a term already past
	time.Sleep(50 * time.Millisecond)
	if got, term := rig.node.Coordinator(), rig.node.Term(); got != "c" || term != 2 {
		t.Fatalf("coordinator = %s term %d after an announcement for a past term, want still c term 2", got, term)
	}
}

// TestBullyOutrankedDuringBarrierDoesNotCrown: a node that won a round
// on a member list read before a higher-ranked peer joined must not
// crown itself — or tell anyone — once that peer has announced itself
// while the node was busy at the journal barrier.
func TestBullyOutrankedDuringBarrierDoesNotCrown(t *testing.T) {
	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	rig := newStaleRig(t, Config{Barrier: func() error {
		once.Do(func() { close(entered) })
		<-release
		return nil
	}})

	rig.node.Trigger() // members = {a, b}: b wins the round and enters the barrier
	<-entered
	rig.admit(Member{Addr: "c", Rank: 3})
	rig.say(t, rig.c, kindCoordinator, 3, 1)
	if got := waitCoord(t, rig.node, 3*time.Second); got != "c" {
		t.Fatalf("coordinator = %s, want c", got)
	}
	close(release)
	// Nothing signals "the round ended without a crown", so give a wrong
	// crown and its announcement (microseconds on this network) ample
	// time to show up.
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		if got := rig.node.Coordinator(); got != "c" {
			t.Fatalf("coordinator = %s after the barrier, want still c", got)
		}
		if rig.announcedItself() {
			t.Fatal("outranked node still announced itself")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestBullyAnsweredButNeverAnnouncedIsChallengedAgain: a higher-ranked
// peer that answers every challenge and never announces itself keeps
// the node waiting, round after round, for as long as it answers — and
// no longer: once it falls silent the node takes over. No bound on the
// rounds may end the election with nobody in charge.
func TestBullyAnsweredButNeverAnnouncedIsChallengedAgain(t *testing.T) {
	rig := newStaleRig(t, Config{})
	rig.admit(Member{Addr: "c", Rank: 3})
	rig.mu.Lock()
	rig.cAnswers = true
	rig.mu.Unlock()

	rig.node.Trigger()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rig.mu.Lock()
		challenges := rig.challenges
		rig.mu.Unlock()
		if challenges >= 12 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("c was challenged %d times, want the node to keep challenging while it answers", challenges)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := rig.node.Coordinator(); got != "" {
		t.Fatalf("coordinator = %s while c still answers, want none", got)
	}
	rig.mu.Lock()
	rig.cAnswers = false
	rig.mu.Unlock()
	if got := waitCoord(t, rig.node, 3*time.Second); got != "b" {
		t.Fatalf("coordinator = %s, want b once c fell silent", got)
	}
	if !rig.announcedItself() {
		// The announcement is sent right after the crown.
		time.Sleep(50 * time.Millisecond)
		if !rig.announcedItself() {
			t.Fatal("b never announced itself to a")
		}
	}
}
