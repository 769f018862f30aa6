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
	"slices"
	"sort"
	"strconv"
	"strings"
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

// Group is the replica's own record of its group: what a node elects
// among, and where it reports what election traffic tells it about the
// members. Every method is local — none may wait on the network.
type Group interface {
	// Members returns the group as this replica knows it, this node
	// included; a member stays listed until it is known to have left.
	Members() []Member
	// Alive reports an election message from the member of that rank
	// at addr.
	Alive(addr string, rank int64)
	// Silent reports that the member at addr was challenged and did not
	// answer.
	Silent(addr string)
	// Left reports that the member at addr resigned.
	Left(addr string)
}

// MembersFunc is a Group that is only read: a fixed or externally
// maintained member list.
type MembersFunc func() []Member

// Members, Alive, Silent and Left implement Group.
func (f MembersFunc) Members() []Member { return f() }
func (MembersFunc) Alive(string, int64) {}
func (MembersFunc) Silent(string)       {}
func (MembersFunc) Left(string)         {}

// Config tunes the election.
type Config struct {
	// AnswerTimeout is how long a challenger waits for an answer from
	// a higher-ranked peer before declaring itself coordinator. A node
	// that was answered waits twice as long for the announcement before
	// it challenges again.
	AnswerTimeout time.Duration
	// OnCoordinator is invoked (outside locks) whenever the known
	// coordinator's address changes. Optional.
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

// Message headers: the sender's rank, and the highest term it has seen
// (on a coordinator message, the term it announces itself for).
const (
	hdrRank = "rank"
	hdrTerm = "term"
)

// resignRank is the rank a departing coordinator challenges with: below
// every real rank, so each member answers and starts its own election.
const resignRank = math.MinInt64

// Node is one Bully participant bound to a peer. It is also the one
// place that holds who leads the group: the coordinator's address and
// the term of its announcement.
type Node struct {
	peer  *p2p.Peer
	rank  int64
	group Group
	cfg   Config

	// wg tracks in-flight runElection goroutines so Close can join
	// them; an election left running across a crash–restart would
	// otherwise race with the restarted replica's re-assembly.
	wg sync.WaitGroup

	mu sync.Mutex
	// coordinator is the address this node follows, "" while it knows
	// none. (term, coordRank) is the claim it adopted last, and stays
	// behind as the floor when the coordinator is forgotten: a claim is
	// adopted only if it is greater in that order, so a late message
	// from the coordinator that was just given up on is stale.
	coordinator string
	coordRank   int64
	term        uint64
	// stamp is (coordRank, term) as heartbeats carry it, rebuilt when
	// the claim changes.
	stamp string
	// seen is the highest term any message carried; a node that wins
	// announces seen+1, which beats every claim it knows of.
	seen      uint64
	electing  bool
	retrigger bool
	answerCh  chan struct{}
	changed   chan struct{}
	closed    bool
}

// NewNode attaches a Bully participant to the peer. rank must be
// unique within the group (Whisper derives it from the peer index).
func NewNode(peer *p2p.Peer, rank int64, group Group, cfg Config) *Node {
	if cfg.AnswerTimeout <= 0 {
		cfg.AnswerTimeout = 200 * time.Millisecond
	}
	n := &Node{
		peer:      peer,
		rank:      rank,
		group:     group,
		cfg:       cfg,
		coordRank: math.MinInt64,
		changed:   make(chan struct{}),
	}
	peer.Handle(p2p.ProtoElection, n.handleMessage)
	return n
}

// Coordinator returns the currently known coordinator address, or ""
// when unknown (mid-election or before the first election).
func (n *Node) Coordinator() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.coordinator
}

// IsCoordinator reports whether this node believes it is coordinator.
func (n *Node) IsCoordinator() bool { return n.Coordinator() == n.peer.Addr() }

// Term returns the term of the claim this node adopted last.
func (n *Node) Term() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.term
}

// Stamp returns the claim this node follows in the form heartbeats
// carry it, "" while it follows none. The string is built when the
// claim changes, not per call.
func (n *Node) Stamp() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.coordinator == "" {
		return ""
	}
	return n.stamp
}

// ParseStamp decodes a Stamp.
func ParseStamp(s string) (rank int64, term uint64, ok bool) {
	r, t, found := strings.Cut(s, " ")
	if !found {
		return 0, 0, false
	}
	rank, err := strconv.ParseInt(r, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	term, err = strconv.ParseUint(t, 10, 64)
	return rank, term, err == nil
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
// for heartbeat failure detection to notice the departure. The node
// takes no further part in elections: a round of its own still in
// flight must not crown it again on its way out. Calling Resign on a
// non-coordinator is a no-op.
func (n *Node) Resign() {
	self := n.peer.Addr()
	n.mu.Lock()
	wasCoord := n.coordinator == self
	if wasCoord {
		n.coordinator = ""
		n.closed = true
	}
	n.mu.Unlock()
	if !wasCoord {
		return
	}
	for _, m := range n.group.Members() {
		if m.Addr != self {
			n.send(m.Addr, kindElection, resignRank)
		}
	}
}

// Suspect reports that addr has gone silent. If it is the coordinator
// the group has none until an election finds one, and one is started.
func (n *Node) Suspect(addr string) {
	if n.forget(addr) {
		n.Trigger()
	}
}

// forget gives up the coordinator if it is addr. The claim stays as the
// floor, so that member is followed again only once it announces itself
// for a later term.
func (n *Node) forget(addr string) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.coordinator != addr {
		return false
	}
	n.coordinator = ""
	return true
}

// Listed takes in a member list from outside the group (the
// rendezvous): rank is the highest among the listed members this
// replica believes alive, term the highest any of them published. A
// live member that outranks the coordinator should be leading — the
// classic Bully recovery — so that starts an election.
func (n *Node) Listed(rank int64, term uint64) {
	n.mu.Lock()
	n.seen = max(n.seen, term)
	rival := !n.closed && n.coordinator != "" && rank > n.coordRank
	n.mu.Unlock()
	if rival {
		n.Trigger()
	}
}

// Trigger starts an election unless one is already in progress. A
// trigger that arrives mid-election is not dropped: the election
// re-runs once it finishes, so a challenge racing with a concluding
// election cannot be lost — unless the election concludes by crowning
// this node after the trigger arrived: its announcement is the answer
// (see crown).
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
	if coord := await(n, ctx.Done()); coord != "" {
		return coord, nil
	}
	return "", fmt.Errorf("election: wait for coordinator: %w", ctx.Err())
}

// await blocks until a coordinator is known and returns it, or "" if
// stop fires first.
func await[T any](n *Node, stop <-chan T) string {
	for {
		n.mu.Lock()
		coord, ch := n.coordinator, n.changed
		n.mu.Unlock()
		if coord != "" {
			return coord
		}
		select {
		case <-ch:
		case <-stop:
			return ""
		}
	}
}

// send transmits one election message carrying rank and the highest
// term this node has seen. Best effort: a member that cannot be reached
// simply does not answer.
func (n *Node) send(to, kind string, rank int64) {
	n.mu.Lock()
	term := n.seen
	n.mu.Unlock()
	_ = n.peer.Send(to, simnet.Message{
		Proto: p2p.ProtoElection,
		Kind:  kind,
		Headers: map[string]string{
			hdrRank: strconv.FormatInt(rank, 10),
			hdrTerm: strconv.FormatUint(term, 10),
		},
	})
}

// runElection executes the Bully protocol until a coordinator is
// established or the node closes: a higher-ranked member that keeps
// answering without ever announcing itself is challenged again, round
// after round, until it announces or falls silent. Each
// run is recorded as an "election.run" root span (when the peer carries
// a tracer), so bench traces can show election convergence alongside
// the proxy's election-wait phases.
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

	for {
		n.mu.Lock()
		closed := n.closed
		answerCh := n.answerCh
		n.mu.Unlock()
		if closed {
			return
		}
		members := n.group.Members()
		// A node that is no longer in the member view (it resigned or
		// was declared dead) must not crown itself from an election
		// that was already in flight; the survivors elect among
		// themselves.
		self := n.peer.Addr()
		if !slices.ContainsFunc(members, func(m Member) bool { return m.Addr == self }) {
			return
		}
		// Challenge every higher-ranked member, suspected ones included:
		// only the member itself can say it is gone.
		higher := membersAbove(members, n.rank)
		for _, m := range higher {
			n.send(m.Addr, kindElection, n.rank)
		}
		if len(higher) > 0 {
			select {
			case <-answerCh:
				// A higher-ranked peer is alive; wait for its coordinator
				// announcement. If it never comes (the peer may have died
				// mid-election), challenge again.
				if await(n, time.After(2*n.cfg.AnswerTimeout)) != "" {
					return
				}
				continue
			case <-time.After(n.cfg.AnswerTimeout):
				// Nobody higher answered: this node wins, and holds
				// them all for silent until it hears otherwise.
				for _, m := range higher {
					n.group.Silent(m.Addr)
				}
			}
		}
		n.win(members)
		return
	}
}

// win concludes a round in which no member above this node answered:
// catch up at the barrier, then crown and announce — unless a
// higher-ranked coordinator announced itself meanwhile.
func (n *Node) win(members []Member) {
	n.mu.Lock()
	if n.coordRank > n.rank {
		// The coordinator this node followed was among the challenged and
		// stayed silent (or is no member any more).
		n.coordinator = ""
	}
	closed := n.closed
	n.mu.Unlock()
	if closed {
		// A closed node must not broadcast coordinatorship from an
		// election that was still in flight when it shut down.
		return
	}
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
	if !n.crown() {
		return
	}
	self := n.peer.Addr()
	for _, m := range members {
		if m.Addr != self {
			n.send(m.Addr, kindCoordinator, n.rank)
		}
	}
}

// crown makes this node coordinator for the term after the highest it
// has seen. It reports false when a higher-ranked coordinator was
// adopted while the round waited for answers or sat at the barrier:
// that node is alive and outranks this one.
func (n *Node) crown() bool {
	n.mu.Lock()
	if n.closed || (n.coordinator != "" && n.coordRank > n.rank) {
		n.mu.Unlock()
		return false
	}
	// Every trigger that arrived while this round ran — a lower peer's
	// challenge, a stale announcement, the detector's report — asked
	// for what the round now delivers: a live coordinator announced
	// to the group. Re-running would repeat the barrier's state
	// transfer and broadcast a second announcement that lands in a
	// restarting replica's own round and re-triggers that one too.
	// A trigger that arrives after this point still re-runs.
	n.retrigger = false
	n.seen++
	cb := n.follow(n.peer.Addr(), n.rank, n.seen)
	n.mu.Unlock()
	cb()
	return true
}

// follow records the claim this node adopts and wakes whoever waits for
// a coordinator. Caller holds n.mu and calls the returned function once
// it has let go of it.
func (n *Node) follow(addr string, rank int64, term uint64) (notify func()) {
	moved := n.coordinator != addr
	n.coordinator, n.coordRank, n.term = addr, rank, term
	n.stamp = strconv.FormatInt(rank, 10) + " " + strconv.FormatUint(term, 10)
	close(n.changed)
	n.changed = make(chan struct{})
	if cb := n.cfg.OnCoordinator; cb != nil && moved {
		return func() { cb(addr) }
	}
	return func() {}
}

// Observe applies the one adoption rule to a claim — the member of that
// rank (at addr, "" when this replica cannot place the rank) leads for
// that term — whether its own announcement brought it or another
// member's heartbeat. It is adopted iff (term, rank) is greater than the
// claim held. One that is, but names a coordinator this node outranks or
// cannot place, is decided by an election instead, and Observe reports
// that it challenged.
func (n *Node) Observe(addr string, rank int64, term uint64) (challenged bool) {
	n.mu.Lock()
	n.seen = max(n.seen, term)
	switch {
	case n.closed || term < n.term || (term == n.term && rank <= n.coordRank):
		// Not newer: a late message from a coordinator since replaced, or
		// the lower of two nodes crowned in one term — the higher one's
		// announcement reaches that one as well.
		n.mu.Unlock()
		return false
	case rank <= n.rank || addr == "":
		// Bully: this node does not follow one it outranks, and its own
		// rank can only be a claim about an earlier life of this node.
		n.mu.Unlock()
		n.Trigger()
		return true
	}
	notify := n.follow(addr, rank, term)
	n.mu.Unlock()
	notify()
	return false
}

func (n *Node) handleMessage(msg simnet.Message) {
	rank, _ := strconv.ParseInt(msg.Header(hdrRank), 10, 64)
	term, _ := strconv.ParseUint(msg.Header(hdrTerm), 10, 64)
	n.mu.Lock()
	n.seen = max(n.seen, term)
	answerCh := n.answerCh
	n.mu.Unlock()
	if msg.Kind == kindElection && rank == resignRank {
		// The coordinator is abdicating: it is gone from the group, and
		// must be forgotten or elections still in flight would mistake
		// the stale value for a fresh announcement and conclude without
		// ever electing a successor.
		n.group.Left(msg.Src)
		n.forget(msg.Src)
	} else {
		n.group.Alive(msg.Src, rank)
	}
	switch msg.Kind {
	case kindElection:
		// A lower-ranked peer is holding an election: answer it and
		// run our own (we outrank it).
		if rank < n.rank {
			n.send(msg.Src, kindAnswer, n.rank)
			n.Trigger()
		}
	case kindAnswer:
		if answerCh != nil {
			select {
			case answerCh <- struct{}{}:
			default:
			}
		}
	case kindCoordinator:
		n.Observe(msg.Src, rank, term)
	}
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
