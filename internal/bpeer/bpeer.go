package bpeer

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"whisper/internal/election"
	"whisper/internal/gossip"
	"whisper/internal/metrics"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/replog"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// ProtoBinding tags coordinator-lookup traffic: the "new binding
// between the SWS-proxy and the elected b-peer" whose cost the paper's
// §5 calls out as one of the two worst-case RTT components.
const ProtoBinding = "binding"

// coordinatorHandler is the binding resolver handler name.
const coordinatorHandler = "bpeer.coordinator"

// pipeHandler answers a replica's own service-pipe location, used by
// proxies to build the replica set follower reads are spread over.
const pipeHandler = "bpeer.pipe"

// Handler executes a service request at a b-peer. Implementations
// wrap backends (operational DB, data warehouse, claim processor...).
type Handler interface {
	// Invoke processes operation op with the given request payload and
	// returns the response payload.
	Invoke(ctx context.Context, op string, payload []byte) ([]byte, error)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(ctx context.Context, op string, payload []byte) ([]byte, error)

var _ Handler = HandlerFunc(nil)

// Invoke implements Handler.
func (f HandlerFunc) Invoke(ctx context.Context, op string, payload []byte) ([]byte, error) {
	return f(ctx, op, payload)
}

// Config assembles a b-peer.
type Config struct {
	// Name is the peer's human-readable name.
	Name string
	// Rank is the Bully priority; must be unique in the group.
	Rank int64
	// GroupID identifies the b-peer group this replica belongs to
	// (shared across replicas of the same functionality).
	GroupID p2p.ID
	// GroupName is the group's advertised name.
	GroupName string
	// Signature is the group's semantic signature (action, inputs,
	// outputs) used in the semantic advertisement.
	Signature ontology.Signature
	// QoS is this replica's advertised quality profile.
	QoS qos.Profile
	// RendezvousAddr is the rendezvous peer's transport address.
	RendezvousAddr string
	// ShardAddrs lists the index nodes of the discovery plane; empty
	// selects the ring of one, [RendezvousAddr]. The semantic
	// advertisement is published to the consistent-hash owners of its
	// action and the membership to those of the group's member list
	// (spreading either to the other nodes is the fleet's job, not this
	// replica's).
	ShardAddrs []string
	// Handler implements the service functionality.
	Handler Handler
	// IDGen mints IDs (shared per deployment for determinism).
	IDGen *p2p.IDGen
	// HeartbeatInterval/HeartbeatTimeout tune coordinator failure
	// detection; zero values select 100ms/400ms.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// ElectionTimeout is the Bully answer timeout; zero selects 150ms.
	ElectionTimeout time.Duration
	// LeaseInterval is how often membership and the semantic
	// advertisement are refreshed in the discovery plane; zero selects
	// 1s. The advertisement lasts MembershipLease(LeaseInterval) without
	// renewal.
	LeaseInterval time.Duration
	// MemberLease is how long the membership lasts without renewal; zero
	// selects MembershipLease(LeaseInterval).
	MemberLease time.Duration
	// NoJournal disables the replicated operation journal (exactly-once
	// execution of keyed requests, internal/replog), and with it
	// follower reads. All replicas of a group must agree on this
	// setting.
	NoJournal bool
	// ReadOnlyOps lists the operations that do not mutate backend
	// state. On journaling groups, requests marked read-only for one of
	// these operations are served locally by ANY replica — follower or
	// coordinator — behind the read-index barrier (see read.go),
	// instead of being redirected to the coordinator. Handlers for
	// these operations must tolerate concurrent invocation: reads are
	// served off the request loop. All replicas of a group should agree
	// on this setting.
	ReadOnlyOps []string
	// ReadLease is how long a follower may reuse a read index fetched
	// from the coordinator before asking again (the clock-bounded lease
	// that amortises the read-index round-trip). Zero selects 25ms.
	ReadLease time.Duration
	// FailStop, when non-nil, classifies handler errors that mean the
	// replica's backend is gone (e.g. backend.ErrUnavailable). The
	// replica then answers the triggering request with a retryable
	// infrastructure error and takes itself offline (fail-stop), so
	// the Bully election promotes a semantically equivalent replica —
	// the paper's §4.1 database→warehouse scenario.
	FailStop func(error) bool
	// Tracer records request-serving spans ("bpeer.request" with a
	// "backend" child) joined to the proxy's trace via the pipe
	// envelope's trace context; nil disables tracing.
	Tracer *trace.Tracer
}

const defaultLeaseInterval = time.Second

// MembershipLease is how long a replica's membership and semantic
// advertisement last unrenewed when it renews every interval (zero
// selects the default): three intervals, so two lost renewals in a row
// do not drop a live replica.
func MembershipLease(interval time.Duration) time.Duration {
	if interval <= 0 {
		interval = defaultLeaseInterval
	}
	return 3 * interval
}

func (c *Config) applyDefaults() {
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 4 * c.HeartbeatInterval
	}
	if c.ElectionTimeout <= 0 {
		c.ElectionTimeout = 150 * time.Millisecond
	}
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = defaultLeaseInterval
	}
	if c.MemberLease <= 0 {
		c.MemberLease = MembershipLease(c.LeaseInterval)
	}
	if c.ReadLease <= 0 {
		c.ReadLease = 25 * time.Millisecond
	}
	if c.IDGen == nil {
		c.IDGen = p2p.NewIDGen(0)
	}
	if len(c.ShardAddrs) == 0 {
		c.ShardAddrs = []string{c.RendezvousAddr}
	}
}

// BPeer is one replica in a b-peer group: it serves requests when it
// is the coordinator, redirects to the coordinator otherwise, watches
// the coordinator's health and participates in Bully elections. A
// replica taken down by Crash or Close can come back with Restart.
type BPeer struct {
	cfg   Config
	pid   p2p.ID // stable across restarts: the same logical replica
	peer  *p2p.Peer
	pipes *p2p.PipeService
	bind  *p2p.Resolver
	fd    *p2p.FailureDetector
	input *p2p.InputPipe

	// Discovery-plane publication state. gossipPub survives
	// Crash/Restart so the replica's entry versions stay monotone across
	// its lifetimes; memberOwners are the index nodes holding the
	// group's member list.
	shards       *p2p.ShardRouter
	memberOwners []string
	gossipCli    *p2p.GossipClient
	gossipPub    *gossip.Publisher

	// journal is the replicated operation journal. Unlike the protocol
	// services it is created once in New and survives Crash/Restart —
	// it models a disk-backed log, the same durability assumption the
	// backends make.
	journal  *replog.Journal
	replogIn *p2p.InputPipe

	// group is what this replica knows of its group — members, who is
	// alive, who coordinates (group.go) — and what it elects among and
	// replicates to. Rebuilt on restart — addresses and pipes may all
	// have changed while it was down; viewStats outlives it.
	group     *group
	viewStats *metrics.Counter

	// lease caches the coordinator's read index for cfg.ReadLease
	// (follower read protocol, read.go). Rebuilt on restart.
	lease *readLease

	mu      sync.Mutex
	started bool
	closed  bool
	crashed bool

	// runCtx is the replica's lifecycle context: derived in Start from
	// the caller's context (minus its cancellation — the replica's
	// lifetime is governed by Close/Crash, not by the Start call's
	// deadline) and cancelled in teardown. Background loops and
	// farewell traffic derive their per-operation timeouts from it.
	runCtx    context.Context
	runCancel context.CancelFunc

	stopLease  chan struct{}
	leaseDone  chan struct{}
	serveDone  chan struct{}
	replogDone chan struct{}
	// reads counts marked reads being served off the serve loop;
	// teardown joins them so none outlives into a Restart.
	reads sync.WaitGroup
}

// New assembles a b-peer over the given transport. Call Start to make
// it live.
func New(tr simnet.Transport, cfg Config) (*BPeer, error) {
	if cfg.Handler == nil {
		return nil, fmt.Errorf("bpeer: config requires a Handler")
	}
	if cfg.GroupID == "" {
		return nil, fmt.Errorf("bpeer: config requires a GroupID")
	}
	if cfg.RendezvousAddr == "" {
		return nil, fmt.Errorf("bpeer: config requires a RendezvousAddr")
	}
	cfg.applyDefaults()
	EnsureAdvTypes()

	b := &BPeer{
		cfg:        cfg,
		pid:        cfg.IDGen.New(p2p.PeerIDKind),
		viewStats:  metrics.NewCounter(),
		stopLease:  make(chan struct{}),
		leaseDone:  make(chan struct{}),
		serveDone:  make(chan struct{}),
		replogDone: make(chan struct{}),
	}
	if !cfg.NoJournal {
		b.journal = replog.New(cfg.Name, cfg.Name)
	}
	b.shards = p2p.NewShardRouter(cfg.ShardAddrs)
	b.memberOwners = b.shards.MemberOwners(cfg.GroupID)
	b.gossipPub = gossip.NewPublisher(cfg.Name, nil)
	b.assemble(tr)
	return b, nil
}

// assemble builds (or rebuilds, on restart) every protocol service over
// the given transport endpoint.
func (b *BPeer) assemble(tr simnet.Transport) {
	cfg := b.cfg
	b.peer = p2p.NewPeer(cfg.Name, b.pid, tr)
	b.peer.SetTracer(cfg.Tracer)
	if col := cfg.Tracer.Collector(); col != nil {
		p2p.ServeTraces(b.peer, col)
	}
	p2p.ServeStatus(b.peer, "bpeer", b.status)
	b.gossipCli = p2p.NewGossipClient(b.peer)
	b.pipes = p2p.NewPipeService(b.peer, cfg.IDGen)
	b.bind = p2p.NewResolverOn(b.peer, ProtoBinding)
	b.bind.RegisterHandler(coordinatorHandler, b.answerCoordinator)
	b.bind.RegisterHandler(pipeHandler, b.answerPipe)
	b.input = b.pipes.Bind(cfg.GroupName+"/service", p2p.UnicastPipe)
	if b.journal != nil {
		b.bind.RegisterHandler(replogPipeHandler, b.answerReplogPipe)
		b.bind.RegisterHandler(replogStateHandler, b.answerReplogState)
		b.bind.RegisterHandler(replogResolveHandler, b.answerReplogResolve)
		b.bind.RegisterHandler(readIndexHandler, b.answerReadIndex)
		b.lease = &readLease{}
		b.replogIn = b.pipes.Bind(cfg.GroupName+"/replog", p2p.PropagatePipe)
	}

	self := member{name: cfg.Name, addr: b.peer.Addr(), rank: cfg.Rank}
	b.group = newGroup(b.peer, self, election.Config{
		AnswerTimeout: cfg.ElectionTimeout,
		Barrier:       b.journalBarrier,
	}, b.viewStats)
	b.fd = p2p.NewFailureDetector(b.peer, b.group, cfg.HeartbeatInterval, cfg.HeartbeatTimeout)
}

// Addr returns the b-peer's transport address.
func (b *BPeer) Addr() string { return b.peer.Addr() }

// Name returns the b-peer's name.
func (b *BPeer) Name() string { return b.cfg.Name }

// Rank returns the b-peer's election priority.
func (b *BPeer) Rank() int64 { return b.cfg.Rank }

// GroupID returns the b-peer group ID.
func (b *BPeer) GroupID() p2p.ID { return b.cfg.GroupID }

// IsCoordinator reports whether this replica is the elected
// coordinator.
func (b *BPeer) IsCoordinator() bool { return b.group.elect.IsCoordinator() }

// Coordinator returns the currently known coordinator address ("" when
// unknown).
func (b *BPeer) Coordinator() string { return b.group.elect.Coordinator() }

// ServicePipe returns the advertisement of this replica's request
// pipe.
func (b *BPeer) ServicePipe() *p2p.PipeAdvertisement { return b.input.Advertisement() }

// SemanticAdvertisement builds the group's semantic advertisement as
// this replica publishes it.
func (b *BPeer) SemanticAdvertisement() *SemanticAdvertisement {
	adv := NewSemanticAdvertisement(b.cfg.GroupID, b.cfg.GroupName, b.cfg.Signature, b.cfg.QoS)
	if b.journal != nil {
		adv.ReadOps = append([]string(nil), b.cfg.ReadOnlyOps...)
	}
	return adv
}

// advertisement returns this peer's membership advertisement with its
// group, its rank and the election term it follows, which is where a
// replica that joins later learns the term from.
func (b *BPeer) advertisement() *p2p.PeerAdvertisement {
	adv := b.peer.Advertisement()
	adv.GID = b.cfg.GroupID
	adv.Rank = b.cfg.Rank
	adv.Term = b.group.elect.Term()
	return adv
}

// Start brings the replica online: join the group, publish the
// semantic advertisement, start heartbeats, the lease renewal loop, the
// request-serving loop, and trigger an initial election. A Start that fails leaves the replica closed — nothing
// running, its endpoint released — and retryable with Restart.
func (b *BPeer) Start(ctx context.Context) error {
	b.mu.Lock()
	if b.started || b.closed {
		b.mu.Unlock()
		return fmt.Errorf("bpeer %s: already started or closed", b.cfg.Name)
	}
	b.started = true
	b.runCtx, b.runCancel = context.WithCancel(context.WithoutCancel(ctx))
	b.mu.Unlock()

	b.peer.Start()
	if err := b.announce(ctx); err != nil {
		// Only the peer's receive loop runs so far. Left like this the
		// replica would report Running yet serve nothing, and nobody
		// could close or restart it.
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		_ = b.teardown(false)
		return fmt.Errorf("bpeer %s: %w", b.cfg.Name, err)
	}
	b.fd.Start()
	go b.leaseLoop()
	go b.serveLoop()
	if b.journal != nil {
		go b.replogLoop()
		// Rejoin state transfer: merge whatever the live members know
		// (committed replies, pending claims) before the first election
		// this replica can win. Best-effort — a lone first boot finds
		// nobody and proceeds with its empty journal.
		catchCtx, catchCancel := context.WithTimeout(b.runCtx, b.cfg.HeartbeatTimeout)
		b.journalCatchUp(catchCtx)
		catchCancel()
	}
	b.group.elect.Start()
	return nil
}

// announce makes the replica known in the discovery plane: its group
// membership (whose answer seeds the group view) and the semantic
// advertisement.
func (b *BPeer) announce(ctx context.Context) error {
	if err := b.joinGroup(ctx); err != nil {
		return fmt.Errorf("initial join: %w", err)
	}
	if err := b.publishSemanticAdv(ctx); err != nil {
		return fmt.Errorf("publish semantic adv: %w", err)
	}
	return nil
}

// Close takes the replica offline gracefully: it leaves the group and,
// if it is the coordinator, resigns — challenging the surviving members
// so the hand-off election starts immediately instead of waiting for
// heartbeat failure detection. Safe to call more
// than once.
func (b *BPeer) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	started := b.started
	b.mu.Unlock()

	if started {
		// Farewell traffic while the transport is still up: leave the
		// group first so that no later list shows this replica. The
		// membership's tombstone is answered with who is left.
		ctx, cancel := context.WithTimeout(b.lifecycleCtx(), b.cfg.HeartbeatTimeout)
		left, err := b.gossipCli.PublishMember(ctx, b.memberOwners, b.gossipPub.Tombstone(string(b.pid)))
		// Last replica out unpublishes the group: a tombstone at the
		// owner nodes propagates epidemically and blocks stale copies
		// from resurrecting the dead advertisement. Earlier leavers keep
		// quiet — surviving replicas still renew it.
		if err == nil && len(left) == 0 {
			adv := b.SemanticAdvertisement()
			_ = b.gossipSend(ctx, adv, b.gossipPub.Tombstone(string(adv.AdvID())))
		}
		cancel()
		b.group.elect.Resign()
	}
	return b.teardown(started)
}

// Crash simulates a hard failure: the replica drops off the network
// abruptly — no resignation, no leave, no farewell traffic
// of any kind. Survivors only learn of the death through heartbeat
// timeouts, exactly like a power failure. Safe to call more than once;
// a crashed replica can come back with Restart.
func (b *BPeer) Crash() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	b.crashed = true
	started := b.started
	b.mu.Unlock()
	return b.teardown(started)
}

// lifecycleCtx returns the replica's run context. Every caller runs
// strictly after Start (loops it spawned, elections it triggered, the
// started branch of Close), so the context is always non-nil.
func (b *BPeer) lifecycleCtx() context.Context {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runCtx
}

// teardown stops every loop and service. Callers must have set closed;
// started says whether the lease, serve and replog loops were launched.
func (b *BPeer) teardown(started bool) error {
	b.mu.Lock()
	cancel := b.runCancel
	b.mu.Unlock()
	if cancel != nil {
		// Abort in-flight handler invocations and lease renewals; the
		// transport under them is about to go away regardless.
		cancel()
	}
	b.group.elect.Close()
	if started {
		close(b.stopLease)
		<-b.leaseDone
	}
	b.fd.Stop()
	b.input.Close()
	if b.replogIn != nil {
		b.replogIn.Close()
	}
	err := b.peer.Close()
	if started {
		<-b.serveDone
		b.reads.Wait()
		if b.journal != nil {
			<-b.replogDone
		}
	}
	return err
}

// Restart brings a crashed (or closed) replica back online over a
// fresh transport endpoint: it rebuilds every protocol service, rejoins
// its group, re-publishes the semantic advertisement
// and re-enters the Bully election as a challenger. The replica keeps
// its identity (name, rank, peer ID), so a restarted high-rank peer can
// win a subsequent election.
func (b *BPeer) Restart(ctx context.Context, tr simnet.Transport) error {
	b.mu.Lock()
	if !b.closed {
		b.mu.Unlock()
		return fmt.Errorf("bpeer %s: restart of a running replica", b.cfg.Name)
	}
	b.closed = false
	b.crashed = false
	b.started = false
	b.stopLease = make(chan struct{})
	b.leaseDone = make(chan struct{})
	b.serveDone = make(chan struct{})
	b.replogDone = make(chan struct{})
	b.mu.Unlock()

	b.assemble(tr)
	return b.Start(ctx)
}

// Running reports whether the replica is live (started and not yet
// crashed or closed).
func (b *BPeer) Running() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.started && !b.closed
}

// Crashed reports whether the replica went down abruptly via Crash (as
// opposed to a graceful Close).
func (b *BPeer) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// --- membership ----------------------------------------------------------

// joinGroup publishes (or renews) this replica's membership — its peer
// advertisement naming the group, for MemberLease — at the owners of
// the group's member list and takes in the other members their answer
// lists: the one read of the member list this replica makes while it
// runs.
func (b *BPeer) joinGroup(ctx context.Context) error {
	raw, err := b.advertisement().MarshalAdv()
	if err != nil {
		return fmt.Errorf("bpeer %s: marshal membership: %w", b.cfg.Name, err)
	}
	asked := time.Now()
	advs, err := b.gossipCli.PublishMember(ctx, b.memberOwners, b.gossipPub.Entry(string(b.pid), raw, b.cfg.MemberLease))
	if err != nil {
		return err
	}
	b.group.install(advs, asked)
	return nil
}

// leaseLoop renews the membership and the semantic advertisement in the
// discovery plane.
func (b *BPeer) leaseLoop() {
	defer close(b.leaseDone)
	ticker := time.NewTicker(b.cfg.LeaseInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			ctx, cancel := context.WithTimeout(b.lifecycleCtx(), b.cfg.LeaseInterval)
			// Renewal failures are transient (an index node may be
			// restarting); the next tick retries.
			_ = b.joinGroup(ctx)
			_ = b.publishSemanticAdv(ctx)
			cancel()
		case <-b.stopLease:
			return
		}
	}
}

// publishSemanticAdv pushes the group's semantic advertisement into
// the discovery plane as a versioned entry with a MembershipLease
// lifetime: one publish to each ring owner of its action — the single
// rendezvous on a ring of one; the epidemic spread to the remaining
// nodes of a larger fleet is the fleet's job.
func (b *BPeer) publishSemanticAdv(ctx context.Context) error {
	adv := b.SemanticAdvertisement()
	raw, err := adv.MarshalAdv()
	if err != nil {
		return fmt.Errorf("bpeer %s: marshal semantic adv: %w", b.cfg.Name, err)
	}
	entry := b.gossipPub.Entry(string(adv.AdvID()), raw, MembershipLease(b.cfg.LeaseInterval))
	return b.gossipSend(ctx, adv, entry)
}

// gossipSend delivers one entry to every replica owner of the
// advertisement's ring slot and succeeds when at least one accepted.
// Writing all k owners is what makes a publish durable: a single
// accepting shard that crashes before its first gossip round would
// take the only copy with it.
func (b *BPeer) gossipSend(ctx context.Context, adv *SemanticAdvertisement, entry gossip.Entry) error {
	owners := b.shards.AppendOwners(nil, adv.AdvType(), "action", adv.Action)
	var lastErr error
	accepted := 0
	for _, owner := range owners {
		if _, err := b.gossipCli.Publish(ctx, owner, entry); err == nil {
			accepted++
		} else {
			lastErr = err
		}
	}
	if accepted > 0 {
		return nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("bpeer %s: no shard owners for %q", b.cfg.Name, adv.Action)
	}
	return lastErr
}

// --- request serving ----------------------------------------------------

// peerRequest is the pipe payload carrying one service request.
type peerRequest struct {
	XMLName xml.Name `xml:"PeerRequest"`
	Op      string   `xml:"Op,attr"`
	// Key is the client's idempotency key (the SOAP MessageID). Keyed
	// requests on journaling groups get exactly-once execution; an
	// empty key selects the legacy at-most-once-per-attempt path.
	Key string `xml:"Key,attr,omitempty"`
	// ReadOnly marks the request as a read: the receiving replica may
	// serve it locally behind the read-index barrier instead of
	// redirecting to the coordinator, provided the op is in its
	// configured ReadOnlyOps set.
	ReadOnly bool   `xml:"ReadOnly,attr,omitempty"`
	Payload  []byte `xml:"Payload"`
}

// peerResponse statuses.
const (
	statusOK       = "ok"
	statusError    = "error"
	statusRedirect = "redirect"
)

// handlerTimeout bounds one backend invocation.
const handlerTimeout = 10 * time.Second

// Retryable infrastructure error messages (recognized by the proxy).
const (
	// ErrMsgNoCoordinator is returned while no coordinator is elected.
	ErrMsgNoCoordinator = "no coordinator elected"
	// ErrMsgFailingOver is returned when a replica fail-stops because
	// its backend became unavailable.
	ErrMsgFailingOver = "replica failing over"
)

// IsInfraErrMsg reports whether a wire error message names a transient
// infrastructure condition (no coordinator, failover in progress,
// unknown journal outcome, read index unavailable) rather than a
// service-level failure. Callers outside this package must use this
// helper instead of comparing the ErrMsg* strings directly: the
// messages are wire format owned here, and identity checks scattered
// across packages would break silently if one were reworded.
func IsInfraErrMsg(msg string) bool {
	switch msg {
	case ErrMsgNoCoordinator, ErrMsgFailingOver, ErrMsgOutcomeUnknown, ErrMsgReadUnavailable:
		return true
	}
	return false
}

// peerResponse is the pipe payload carrying one service response.
type peerResponse struct {
	XMLName xml.Name `xml:"PeerResponse"`
	Status  string   `xml:"Status,attr"`
	// Coordinator is set on redirects so the caller can re-bind.
	Coordinator string `xml:"Coordinator,omitempty"`
	// Error is the failure message when Status is "error".
	Error string `xml:"Error,omitempty"`
	// ReadIndex and ReadSeq are set on follower-served reads: the
	// committed sequence the read was issued at, and the local
	// committed sequence when it executed. The staleness invariant is
	// ReadSeq >= ReadIndex.
	ReadIndex uint64 `xml:"ReadIndex,attr,omitempty"`
	ReadSeq   uint64 `xml:"ReadSeq,attr,omitempty"`
	// Payload is the service response when Status is "ok".
	Payload []byte `xml:"Payload,omitempty"`
}

// EncodeRequest builds the wire form of a service request (exported
// for the proxy). key is the idempotency key, "" for unkeyed requests.
func EncodeRequest(op string, payload []byte, key string) ([]byte, error) { //lint:hotpath
	return xml.Marshal(peerRequest{Op: op, Key: key, Payload: payload})
}

// EncodeReadRequest builds the wire form of a read-only request.
// Reads are unkeyed (they never enter the journal) and carry the
// ReadOnly mark that lets a follower serve them locally.
func EncodeReadRequest(op string, payload []byte) ([]byte, error) {
	return xml.Marshal(peerRequest{Op: op, ReadOnly: true, Payload: payload})
}

// Response is the decoded form of a service response, including the
// follower-read staleness fields.
type Response struct {
	Status      string
	Coordinator string
	Error       string
	Payload     []byte
	// ReadIndex/ReadSeq are non-zero only on follower-served reads.
	ReadIndex uint64
	ReadSeq   uint64
}

// DecodeResponseFull parses the wire form of a service response
// (exported for the proxy) into a Response, preserving the read-index
// staleness fields.
func DecodeResponseFull(data []byte) (Response, error) { //lint:hotpath
	var resp peerResponse
	if err := xml.Unmarshal(data, &resp); err != nil {
		return Response{}, fmt.Errorf("bpeer: decode response: %w", err)
	}
	return Response{
		Status:      resp.Status,
		Coordinator: resp.Coordinator,
		Error:       resp.Error,
		Payload:     resp.Payload,
		ReadIndex:   resp.ReadIndex,
		ReadSeq:     resp.ReadSeq,
	}, nil
}

// serveLoop answers requests on the service pipe.
func (b *BPeer) serveLoop() {
	defer close(b.serveDone)
	for {
		select {
		case pm := <-b.input.Messages():
			b.handleRequest(pm)
		case <-b.input.Done():
			return
		}
	}
}

func (b *BPeer) handleRequest(pm p2p.PipeMessage) {
	var req peerRequest
	// The span joins the proxy's trace via the pipe envelope's trace
	// context (a zero pm.Trace yields a detached root, which BuildTree
	// reports as an orphan).
	span := b.cfg.Tracer.StartRemote(pm.Trace, "bpeer.request")
	span.SetAttr("peer", b.cfg.Name)
	resp := peerResponse{Status: statusError}
	// failingOver: the backend is gone, so after replying the replica
	// fail-stops and the election promotes one with a working backend.
	var failingOver bool
	reply := func() {
		if resp.Status == statusError {
			span.SetAttr("error", resp.Error)
		}
		span.SetAttr("status", resp.Status)
		span.End()
		if data, err := xml.Marshal(resp); err == nil {
			// Best effort: the caller may have timed out.
			_ = b.input.Reply(pm, data)
		}
		if failingOver {
			go func() { _ = b.Close() }()
		}
	}
	if err := xml.Unmarshal(pm.Payload, &req); err != nil {
		resp.Error = fmt.Sprintf("bad request: %v", err)
		reply()
		return
	}
	span.SetAttr("op", req.Op)
	if req.ReadOnly && b.journal != nil && b.isReadOnlyOp(req.Op) {
		// Marked read on a journaling group: any replica serves it
		// locally behind the read-index barrier. Served off the request
		// loop so a barrier wait (lagging apply) never blocks writes or
		// other reads.
		b.reads.Add(1)
		go func() {
			defer b.reads.Done()
			resp, failingOver = b.readResponse(span, req)
			reply()
		}()
		return //lint:allow spanend span ownership transfers to the read goroutine, whose reply ends it
	}
	// §4.2: "the b-peer found may not be the coordinator. Therefore,
	// additional processing may need to be done to find the current
	// coordinator." Only marked reads (above) are served elsewhere.
	if !b.IsCoordinator() {
		if coord := b.Coordinator(); coord == "" {
			resp.Error = ErrMsgNoCoordinator
		} else {
			resp.Status = statusRedirect
			resp.Coordinator = coord
		}
		reply()
		return
	}
	if b.journal != nil && req.Key != "" {
		// Keyed request on a journaling group: the exactly-once path
		// (claim → replicate → execute once → replicate → ack)
		// computes the response; the reply closure above acks it.
		resp, failingOver = b.journaledResponse(span, req)
	} else {
		ctx, cancel := context.WithTimeout(trace.ContextWith(b.lifecycleCtx(), span), handlerTimeout)
		resp, failingOver = b.unjournaledResponse(ctx, req)
		cancel()
	}
	reply()
}

// execOutcome classifies one handler execution.
type execOutcome int

const (
	execOK          execOutcome = iota
	execAppError                // a deterministic application error: an outcome
	execFailStop                // Config.FailStop matched: the backend is gone, the operation did not execute
	execInterrupted             // replica going down or handler timed out mid-execution: outcome unknown
)

// execute runs the handler under a "backend" span and classifies its
// error, once for every serve path.
func (b *BPeer) execute(ctx context.Context, req peerRequest) ([]byte, execOutcome, error) {
	hctx, hspan := b.cfg.Tracer.StartSpan(ctx, "backend")
	out, err := b.cfg.Handler.Invoke(hctx, req.Op, req.Payload)
	hspan.EndWith(err)
	switch {
	case err == nil:
		return out, execOK, nil
	case b.cfg.FailStop != nil && b.cfg.FailStop(err):
		return nil, execFailStop, err
	case ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		return nil, execInterrupted, err
	}
	return nil, execAppError, err
}

// unjournaledResponse executes a request that bypasses the journal (an
// unkeyed request or a marked read). Only an application error reaches
// the client: a fail-stop or an interrupted execution is this replica's
// trouble and is answered retryably, so the proxy tries elsewhere.
func (b *BPeer) unjournaledResponse(ctx context.Context, req peerRequest) (resp peerResponse, failingOver bool) {
	resp = peerResponse{Status: statusError}
	out, outcome, err := b.execute(ctx, req)
	switch outcome {
	case execOK:
		resp.Status = statusOK
		resp.Payload = out
	case execFailStop:
		resp.Error = ErrMsgFailingOver
	case execInterrupted:
		resp.Error = ErrMsgOutcomeUnknown
	case execAppError:
		resp.Error = err.Error()
	}
	return resp, outcome == execFailStop
}

// answerCoordinator serves coordinator-lookup queries from proxies and
// other peers: it returns "<addr> <rank> <pipeID>" for the current
// coordinator, or an error while no coordinator is known.
func (b *BPeer) answerCoordinator(_ string, _ []byte) ([]byte, error) {
	coord := b.Coordinator()
	if coord == "" {
		return nil, fmt.Errorf("no coordinator elected")
	}
	if coord == b.peer.Addr() {
		return []byte(coord + " " + strconv.FormatInt(b.cfg.Rank, 10) + " " + string(b.input.Advertisement().PipeID)), nil
	}
	// Not the coordinator: report its address; the caller asks it
	// directly for the pipe.
	return []byte(coord), nil
}

// answerPipe serves this replica's own service-pipe location.
func (b *BPeer) answerPipe(_ string, _ []byte) ([]byte, error) {
	return []byte(b.peer.Addr() + " " + string(b.input.Advertisement().PipeID)), nil
}

// QueryServicePipe asks a replica for its own service pipe (the
// follower-read binding path).
func QueryServicePipe(ctx context.Context, r *p2p.Resolver, memberAddr string) (*p2p.PipeAdvertisement, error) {
	payload, err := r.Query(ctx, memberAddr, pipeHandler, nil)
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(string(payload))
	if len(fields) != 2 {
		return nil, fmt.Errorf("bpeer: malformed pipe answer %q", payload)
	}
	return &p2p.PipeAdvertisement{
		PipeID: p2p.ID(fields[1]),
		Kind:   p2p.UnicastPipe,
		Addr:   fields[0],
	}, nil
}

// QueryCoordinator asks a group member for the current coordinator.
// It returns the coordinator's address and, when the queried member IS
// the coordinator, its service pipe ID.
func QueryCoordinator(ctx context.Context, r *p2p.Resolver, memberAddr string) (coordAddr string, pipeID p2p.ID, err error) {
	payload, err := r.Query(ctx, memberAddr, coordinatorHandler, nil)
	if err != nil {
		return "", "", err
	}
	fields := strings.Fields(string(payload))
	switch len(fields) {
	case 1:
		return fields[0], "", nil
	case 3:
		return fields[0], p2p.ID(fields[2]), nil
	default:
		return "", "", fmt.Errorf("bpeer: malformed coordinator answer %q", payload)
	}
}
