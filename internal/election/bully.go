// Package election implements the Bully leader-election algorithm the
// paper's b-peers run (§4.2): every replica is active, one coordinator
// serves requests, and when it fails the remaining peers elect the
// highest-ranked live peer with election / answer / coordinator
// messages. The election duration is one of the two components of the
// paper's worst-case RTT (§5), so the timeouts are configurable and
// the message flow is faithful to the classic algorithm.
package election

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// Member is one participant in the election group.
type Member struct {
	// Addr is the member's transport address.
	Addr string
	// Rank is the bully priority; the highest live rank wins.
	Rank int64
}

// MembersFunc supplies the current group view (including this node).
// The node queries it at election time, so membership can be dynamic
// (backed by the rendezvous in Whisper).
type MembersFunc func() []Member

// Config tunes the election timeouts.
type Config struct {
	// AnswerTimeout is how long a challenger waits for an answer from
	// a higher-ranked peer before declaring itself coordinator.
	AnswerTimeout time.Duration
	// CoordTimeout is how long a node that received an answer waits
	// for the coordinator announcement before restarting the election.
	CoordTimeout time.Duration
	// OnCoordinator is invoked (outside locks) whenever the known
	// coordinator changes. Optional.
	OnCoordinator func(addr string)
	// Barrier, when set, runs after this node wins an election but
	// before it announces (or acts as) coordinator. Whisper uses it as
	// the journal catch-up barrier: the new coordinator state-transfers
	// the replicated operation journal from the surviving members so it
	// serves no request before reaching the highest committed sequence.
	// Returning an error abandons the victory and re-triggers the
	// election. Optional.
	Barrier func() error
}

// Message kinds of the election protocol.
const (
	kindElection    = "election"
	kindAnswer      = "answer"
	kindCoordinator = "coordinator"
)

// Message headers.
const (
	hdrRank = "rank"
)

// Node is one Bully participant bound to a peer.
type Node struct {
	peer    *p2p.Peer
	rank    int64
	members MembersFunc
	cfg     Config

	// wg tracks in-flight runElection goroutines so Close can join
	// them; an election left running across a crash–restart would
	// otherwise race with the restarted replica's re-assembly.
	wg sync.WaitGroup

	mu          sync.Mutex
	coordinator string
	coordRank   int64
	// epoch counts coordinator changes. Deciding who the coordinator is
	// takes slow steps — reading the member view, waiting for answers,
	// the journal barrier — and handlers run concurrently, so a decision
	// can finish after a later one was already applied. A decision notes
	// the epoch when it starts and is dropped if, by the time it would
	// be applied, a higher-ranked coordinator has been installed since.
	epoch uint64
	// verifying counts coordinator announcements whose sender is still
	// being checked against the member view; verified is closed whenever
	// the count returns to zero. A node about to crown itself waits for
	// them — one may be the announcement that outranks it.
	verifying int
	verified  chan struct{}
	electing  bool
	retrigger bool
	answerCh  chan struct{}
	changed   chan struct{}
	closed    bool
}

// NewNode attaches a Bully participant to the peer. rank must be
// unique within the group (Whisper derives it from the peer index).
func NewNode(peer *p2p.Peer, rank int64, members MembersFunc, cfg Config) *Node {
	if cfg.AnswerTimeout <= 0 {
		cfg.AnswerTimeout = 200 * time.Millisecond
	}
	if cfg.CoordTimeout <= 0 {
		cfg.CoordTimeout = 2 * cfg.AnswerTimeout
	}
	n := &Node{
		peer:     peer,
		rank:     rank,
		members:  members,
		cfg:      cfg,
		changed:  make(chan struct{}),
		verified: make(chan struct{}),
	}
	peer.Handle(p2p.ProtoElection, n.handleMessage)
	return n
}

// Rank returns this node's bully priority.
func (n *Node) Rank() int64 { return n.rank }

// Addr returns this node's transport address.
func (n *Node) Addr() string { return n.peer.Addr() }

// Coordinator returns the currently known coordinator address, or ""
// when unknown (mid-election or before the first election).
func (n *Node) Coordinator() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coordinator
}

// IsCoordinator reports whether this node believes it is coordinator.
func (n *Node) IsCoordinator() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coordinator == n.peer.Addr()
}

// Close detaches the node and waits for in-flight elections to unwind
// (every wait inside a round is time-bounded, so this returns
// promptly). Joining them matters on crash–restart: a straggler
// election still reading the member view would race with the restarted
// replica rebuilding its services.
func (n *Node) Close() {
	n.mu.Lock()
	n.closed = true
	n.mu.Unlock()
	n.wg.Wait()
}

// Resign relinquishes coordinatorship on graceful shutdown: the
// departing coordinator clears its local state and challenges every
// other member with the lowest possible rank, so each live member
// answers and starts its own election immediately instead of waiting
// for heartbeat failure detection to notice the departure. Calling
// Resign on a non-coordinator is a no-op.
func (n *Node) Resign() {
	self := n.peer.Addr()
	n.mu.Lock()
	wasCoord := n.coordinator == self
	if wasCoord {
		n.coordinator = ""
		n.coordRank = 0
	}
	n.mu.Unlock()
	if !wasCoord {
		return
	}
	for _, m := range n.members() {
		if m.Addr == self {
			continue
		}
		_ = n.peer.Send(m.Addr, simnet.Message{
			Proto:   p2p.ProtoElection,
			Kind:    kindElection,
			Headers: map[string]string{hdrRank: strconv.FormatInt(math.MinInt64, 10)},
		})
	}
}

// InvalidateCoordinator clears the known coordinator (called when the
// failure detector reports it dead) without starting an election.
func (n *Node) InvalidateCoordinator() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.coordinator = ""
	n.coordRank = 0
}

// Trigger starts an election unless one is already in progress. A
// trigger that arrives mid-election is not dropped: the election
// re-runs once it finishes, so a challenge racing with a concluding
// election (or with InvalidateCoordinator) cannot be lost — unless the
// election concludes by crowning this node after the trigger arrived:
// its announcement is the answer (see setCoordinator).
func (n *Node) Trigger() {
	n.mu.Lock()
	if n.electing || n.closed {
		if n.electing {
			n.retrigger = true
		}
		n.mu.Unlock()
		return
	}
	n.electing = true
	n.answerCh = make(chan struct{}, 1)
	// Added under the lock: a concurrent Close either sees electing
	// already counted or has already flipped closed above.
	n.wg.Add(1)
	n.mu.Unlock()
	go func() {
		defer n.wg.Done()
		n.runElection()
	}()
}

// WaitForCoordinator blocks until a coordinator is known or ctx ends.
func (n *Node) WaitForCoordinator(ctx context.Context) (string, error) {
	for {
		n.mu.Lock()
		coord := n.coordinator
		ch := n.changed
		n.mu.Unlock()
		if coord != "" {
			return coord, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return "", fmt.Errorf("election: wait for coordinator: %w", ctx.Err())
		}
	}
}

// runElection executes the Bully protocol until a coordinator is
// established or the node closes. Each run is recorded as an
// "election.run" root span (when the peer carries a tracer), so bench
// traces can show election convergence alongside the proxy's
// election-wait phases.
func (n *Node) runElection() {
	span := n.peer.Tracer().StartRemote(trace.SpanContext{}, "election.run")
	span.SetAttr("node", n.peer.Addr())
	span.SetAttr("rank", strconv.FormatInt(n.rank, 10))
	defer func() {
		n.mu.Lock()
		n.electing = false
		n.answerCh = nil
		again := n.retrigger && !n.closed
		n.retrigger = false
		coord := n.coordinator
		n.mu.Unlock()
		span.SetAttr("coordinator", coord)
		span.End()
		if again {
			n.Trigger()
		}
	}()

	const maxAttempts = 10
	for attempt := 0; attempt < maxAttempts; attempt++ {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		answerCh := n.answerCh
		since := n.epoch
		n.mu.Unlock()

		members := n.members()
		// A node that is no longer in the member view (it resigned or
		// was declared dead) must not crown itself from an election
		// that was already in flight; the survivors elect among
		// themselves.
		if !memberOf(members, n.peer.Addr()) {
			return
		}
		higher := membersAbove(members, n.rank)
		if len(higher) == 0 {
			n.becomeCoordinator(members, since)
			return
		}
		// Challenge every higher-ranked member.
		for _, m := range higher {
			_ = n.peer.Send(m.Addr, simnet.Message{
				Proto:   p2p.ProtoElection,
				Kind:    kindElection,
				Headers: map[string]string{hdrRank: strconv.FormatInt(n.rank, 10)},
			})
		}
		select {
		case <-answerCh:
			// A higher-ranked peer is alive; wait for its coordinator
			// announcement.
			if n.waitForAnnouncement(n.cfg.CoordTimeout) {
				return
			}
			// Announcement never came (the higher peer may have died
			// mid-election); retry.
		case <-time.After(n.cfg.AnswerTimeout):
			// Nobody higher answered: this node wins.
			n.becomeCoordinator(members, since)
			return
		}
	}
}

// waitForAnnouncement waits for a coordinator to be set.
func (n *Node) waitForAnnouncement(timeout time.Duration) bool {
	deadline := time.After(timeout)
	for {
		n.mu.Lock()
		coord := n.coordinator
		ch := n.changed
		n.mu.Unlock()
		if coord != "" {
			return true
		}
		select {
		case <-ch:
		case <-deadline:
			return false
		}
	}
}

// becomeCoordinator crowns this node after an election round that began
// at epoch since, unless a higher-ranked coordinator announced itself
// while the round was reading members, waiting for answers or catching
// up at the barrier — then that node is alive and outranks this one.
func (n *Node) becomeCoordinator(members []Member, since uint64) {
	self := n.peer.Addr()
	n.mu.Lock()
	if n.closed || n.outrankedSince(n.rank, since) {
		// A closed node must not broadcast coordinatorship from an
		// election that was still in flight when it shut down; an
		// outranked one spares itself the barrier.
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if n.cfg.Barrier != nil {
		if err := n.cfg.Barrier(); err != nil {
			// The catch-up failed: do not serve, run the election
			// again (the deferred retrigger in runElection picks this
			// up once the current round unwinds).
			n.mu.Lock()
			n.retrigger = true
			n.mu.Unlock()
			return
		}
	}
	n.awaitVerified()
	if !n.setCoordinator(self, n.rank, since) {
		return
	}
	for _, m := range members {
		if m.Addr == self {
			continue
		}
		_ = n.peer.Send(m.Addr, simnet.Message{
			Proto:   p2p.ProtoElection,
			Kind:    kindCoordinator,
			Headers: map[string]string{hdrRank: strconv.FormatInt(n.rank, 10)},
		})
	}
}

// awaitVerified blocks while announcements received from other peers
// are still being verified, for at most CoordTimeout.
func (n *Node) awaitVerified() {
	deadline := time.After(n.cfg.CoordTimeout)
	for {
		n.mu.Lock()
		if n.verifying == 0 || n.closed {
			n.mu.Unlock()
			return
		}
		ch := n.verified
		n.mu.Unlock()
		select {
		case <-ch:
		case <-deadline:
			return
		}
	}
}

// outrankedSince reports whether a coordinator ranked above rank was
// installed after epoch since. Caller holds n.mu.
func (n *Node) outrankedSince(rank int64, since uint64) bool {
	return n.epoch != since && n.coordinator != "" && n.coordRank > rank
}

// setCoordinator applies a decision that began at epoch since. It
// reports false when the decision went stale and was dropped (or the
// node is closed).
func (n *Node) setCoordinator(addr string, rank int64, since uint64) bool {
	n.mu.Lock()
	if n.closed || n.outrankedSince(rank, since) {
		n.mu.Unlock()
		return false
	}
	if addr == n.peer.Addr() {
		// Every trigger that arrived while this round ran — a lower peer's
		// challenge, a stale announcement, the detector's report — asked
		// for what the round now delivers: a live coordinator announced
		// to the group. Re-running would repeat the barrier's state
		// transfer and broadcast a second announcement that lands in a
		// restarting replica's own round and re-triggers that one too.
		// A trigger that arrives after this point still re-runs.
		n.retrigger = false
	}
	if n.coordinator == addr && n.coordRank == rank {
		n.mu.Unlock()
		return true
	}
	n.coordinator = addr
	n.coordRank = rank
	n.epoch++
	close(n.changed)
	n.changed = make(chan struct{})
	cb := n.cfg.OnCoordinator
	n.mu.Unlock()
	if cb != nil {
		cb(addr)
	}
	return true
}

func (n *Node) handleMessage(msg simnet.Message) {
	rank, _ := strconv.ParseInt(msg.Header(hdrRank), 10, 64)
	switch msg.Kind {
	case kindElection:
		// A lower-ranked peer is holding an election: answer it and
		// run our own (we outrank it).
		if rank < n.rank {
			// If the challenger is the coordinator we currently know,
			// it is abdicating (Resign sends the lowest possible
			// rank): forget it, or elections still in flight would
			// mistake the stale value for a fresh announcement and
			// conclude without ever electing a successor.
			n.mu.Lock()
			if n.coordinator == msg.Src {
				n.coordinator = ""
				n.coordRank = 0
			}
			n.mu.Unlock()
			_ = n.peer.Send(msg.Src, simnet.Message{
				Proto:   p2p.ProtoElection,
				Kind:    kindAnswer,
				Headers: map[string]string{hdrRank: strconv.FormatInt(n.rank, 10)},
			})
			n.Trigger()
		}
	case kindAnswer:
		n.mu.Lock()
		ch := n.answerCh
		n.mu.Unlock()
		if ch != nil {
			select {
			case ch <- struct{}{}:
			default:
			}
		}
	case kindCoordinator:
		// Accept announcements from peers that outrank us and are
		// still part of the member view; a stale announcement — lower
		// rank, or a sender that already crashed or resigned out of
		// the group — is challenged with a new election instead, so a
		// late broadcast from a dead coordinator cannot wedge the
		// survivors on it.
		if rank < n.rank {
			n.Trigger()
			return
		}
		// The member lookup is a network round trip and every message
		// has its own goroutine, so this announcement may be applied
		// after a later one: it is dropped if a higher-ranked
		// coordinator was installed in the meantime, and an election
		// round about to crown this node waits until it is settled.
		n.mu.Lock()
		since := n.epoch
		n.verifying++
		n.mu.Unlock()
		member := memberOf(n.members(), msg.Src)
		if member {
			n.setCoordinator(msg.Src, rank, since)
		}
		n.mu.Lock()
		n.verifying--
		if n.verifying == 0 {
			close(n.verified)
			n.verified = make(chan struct{})
		}
		n.mu.Unlock()
		if !member {
			n.Trigger()
		}
	}
}

func memberOf(members []Member, addr string) bool {
	for _, m := range members {
		if m.Addr == addr {
			return true
		}
	}
	return false
}

func membersAbove(members []Member, rank int64) []Member {
	var out []Member
	for _, m := range members {
		if m.Rank > rank {
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rank > out[j].Rank })
	return out
}
