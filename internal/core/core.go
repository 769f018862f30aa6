// Package core assembles the full Whisper architecture: a rendezvous
// peer, semantic b-peer groups, SWS-proxies and SOAP-fronted semantic
// Web services over a pluggable transport (the simulated LAN or real
// TCP). It is the facade the public whisper package re-exports.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/loadctl"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// TransportFactory opens a transport endpoint for a named component.
type TransportFactory func(name string) (simnet.Transport, error)

// SimulatedTransport returns a factory over a simulated network; the
// component name doubles as the address.
func SimulatedTransport(net *simnet.Network) TransportFactory {
	return func(name string) (simnet.Transport, error) { return net.NewPort(name) }
}

// TCPTransport returns a factory over real loopback TCP; each
// component gets its own listener on the host (use "127.0.0.1:0").
func TCPTransport(listenHost string) TransportFactory {
	return func(string) (simnet.Transport, error) { return simnet.NewTCPTransport(listenHost) }
}

// Timings bundles the protocol timeouts of a deployment. The zero
// value selects defaults suitable for LAN-scale latencies.
type Timings struct {
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	ElectionTimeout   time.Duration
	LeaseInterval     time.Duration
	RendezvousLease   time.Duration
	BindTimeout       time.Duration
	CallTimeout       time.Duration
	RetryDelay        time.Duration
	// RetryMaxDelay caps the proxy's exponential backoff; zero selects
	// the proxy default (16×RetryDelay).
	RetryMaxDelay time.Duration
	// BreakerThreshold opens a proxy's per-group circuit breaker after
	// this many consecutive infrastructure failures; zero selects the
	// proxy default (5), negative disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is the open → half-open probe delay; zero
	// selects the proxy default (10×RetryDelay).
	BreakerCooldown time.Duration
	// GossipInterval / GossipReconcileInterval tune the discovery
	// fleet's rumor and anti-entropy cadences; zero selects the gossip
	// engine defaults (25ms / 8×interval).
	GossipInterval          time.Duration
	GossipReconcileInterval time.Duration
}

func (t *Timings) applyDefaults() {
	if t.HeartbeatInterval <= 0 {
		t.HeartbeatInterval = 100 * time.Millisecond
	}
	if t.HeartbeatTimeout <= 0 {
		t.HeartbeatTimeout = 4 * t.HeartbeatInterval
	}
	if t.ElectionTimeout <= 0 {
		t.ElectionTimeout = 150 * time.Millisecond
	}
	if t.LeaseInterval <= 0 {
		t.LeaseInterval = time.Second
	}
	if t.RendezvousLease <= 0 {
		t.RendezvousLease = 3 * t.LeaseInterval
	}
	if t.BindTimeout <= 0 {
		t.BindTimeout = 500 * time.Millisecond
	}
	if t.CallTimeout <= 0 {
		t.CallTimeout = 2 * time.Second
	}
	if t.RetryDelay <= 0 {
		t.RetryDelay = 100 * time.Millisecond
	}
}

// Config assembles a Deployment.
type Config struct {
	// Transport opens endpoints; required.
	Transport TransportFactory
	// Ontology is the domain ontology; nil selects the combined
	// University+B2B ontology.
	Ontology *ontology.Ontology
	// Seed makes IDs deterministic when non-zero.
	Seed int64
	// Timings tunes protocol timeouts.
	Timings Timings
	// Tracing equips the deployment with a shared trace collector:
	// every peer (rendezvous, b-peers, proxies) and SOAP server records
	// spans into it, and peers answer remote trace dumps on the
	// "tracing" protocol. Off by default.
	Tracing bool
	// TraceCapacity bounds the trace ring; zero selects
	// trace.DefaultCapacity.
	TraceCapacity int
	// Shards is the size of the discovery fleet: index nodes holding the
	// advertisement set and replicating it to one another via gossip.
	// Node 0 rides the rendezvous peer (group membership stays there);
	// the other Shards-1 get dedicated peers. Zero means one: the
	// paper's single-rendezvous layout is the ring with one member.
	Shards int
}

// Deployment is one Whisper installation: a rendezvous, any number of
// b-peer groups and SWS-proxy-backed services.
type Deployment struct {
	cfg      Config
	gen      *p2p.IDGen
	reasoner *ontology.Reasoner
	tracer   *trace.Tracer

	rdvPeer *p2p.Peer
	rdvSvc  *p2p.RendezvousService

	// shards is the discovery fleet, never empty; shards[0] rides the
	// rendezvous peer.
	shards     []*ShardNode
	shardAddrs []string

	mu       sync.Mutex
	groups   map[string]*Group
	services map[string]*Service
	closed   bool
}

// ShardNode is one index node of the discovery fleet: a peer carrying
// a discovery index kept converged with the rest of the fleet by its
// gossip engine. Node 0 is the rendezvous peer itself — membership
// stays centralized while the advertisement index is partitioned.
type ShardNode struct {
	idx  int
	name string

	mu   sync.Mutex
	peer *p2p.Peer
	gsvc *p2p.GossipService
	down bool
}

// Name returns the shard's component name.
func (s *ShardNode) Name() string { return s.name }

// Addr returns the shard's transport address.
func (s *ShardNode) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peer.Addr()
}

// Discovery returns the shard's discovery index.
func (s *ShardNode) Discovery() *p2p.DiscoveryService {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gsvc.Discovery()
}

// Running reports whether the shard is up.
func (s *ShardNode) Running() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.down
}

// NewDeployment starts a deployment with its rendezvous peer online.
func NewDeployment(cfg Config) (*Deployment, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("core: config requires a Transport factory")
	}
	cfg.Timings.applyDefaults()
	if cfg.Ontology == nil {
		cfg.Ontology = ontology.Combined()
	}
	bpeer.EnsureAdvTypes()

	d := &Deployment{
		cfg:      cfg,
		gen:      p2p.NewIDGen(cfg.Seed),
		reasoner: ontology.NewReasoner(cfg.Ontology),
		groups:   make(map[string]*Group),
		services: make(map[string]*Service),
	}
	if cfg.Tracing {
		capacity := cfg.TraceCapacity
		if capacity <= 0 {
			capacity = trace.DefaultCapacity
		}
		col := trace.NewCollector(capacity)
		if cfg.Seed != 0 {
			d.tracer = trace.NewSeeded(col, cfg.Seed)
		} else {
			d.tracer = trace.New(col)
		}
	}
	for i := 0; i < max(1, cfg.Shards); i++ {
		s := &ShardNode{idx: i, name: "rendezvous"}
		if i > 0 {
			s.name = fmt.Sprintf("shard-%d", i)
		}
		if err := d.bootShard(s); err != nil {
			_ = d.Close()
			return nil, err
		}
		d.shards = append(d.shards, s)
		d.shardAddrs = append(d.shardAddrs, s.peer.Addr())
		if i == 0 {
			d.rdvPeer = s.peer
			if col := d.tracer.Collector(); col != nil {
				p2p.ServeTraces(d.rdvPeer, col)
			}
			d.rdvSvc = p2p.NewRendezvousService(d.rdvPeer, cfg.Timings.RendezvousLease)
		}
	}
	for _, s := range d.shards {
		s.start(d.shardAddrs)
	}
	return d, nil
}

// bootShard opens a fresh endpoint under the node's name and puts an
// index node on it: the one construction path, at deployment and on
// restart. The caller starts the node once it knows the fleet.
func (d *Deployment) bootShard(s *ShardNode) error {
	tr, err := d.cfg.Transport(s.name)
	if err != nil {
		return fmt.Errorf("core: transport %s: %w", s.name, err)
	}
	peer := p2p.NewPeer(s.name, d.gen.New(p2p.PeerIDKind), tr)
	peer.SetTracer(d.tracer)
	gsvc, err := p2p.NewIndexNode(peer, p2p.GossipConfig{
		Seed:              d.cfg.Seed + int64(s.idx),
		Interval:          d.cfg.Timings.GossipInterval,
		ReconcileInterval: d.cfg.Timings.GossipReconcileInterval,
	})
	if err != nil {
		// The peer never started: nothing but the endpoint to release.
		_ = tr.Close()
		return fmt.Errorf("core: shard %s gossip: %w", s.name, err)
	}
	s.peer, s.gsvc = peer, gsvc
	return nil
}

// start brings the node online as a member of the fleet. Callers hold
// s.mu or own s exclusively.
func (s *ShardNode) start(fleet []string) {
	s.peer.Start()
	s.gsvc.SetPeers(fleet)
	s.gsvc.Run()
	s.down = false
}

// stop takes the node offline without farewell traffic. Callers hold
// s.mu.
func (s *ShardNode) stop() error {
	s.down = true
	s.gsvc.Stop()
	return s.peer.Close()
}

// ShardAddrs returns the discovery fleet's transport addresses, node 0
// (the rendezvous) first; never empty. Callers must not mutate the
// slice.
func (d *Deployment) ShardAddrs() []string { return d.shardAddrs }

// Shards returns the discovery fleet's index nodes, node 0 (on the
// rendezvous peer) first; never empty.
func (d *Deployment) Shards() []*ShardNode { return d.shards }

// CrashShard abruptly takes shard i offline: its gossip engine stops
// and its transport closes without farewell traffic, so the surviving
// fleet only notices through failed exchanges. Shard 0 (the
// rendezvous) cannot be crashed — membership would die with it.
func (d *Deployment) CrashShard(i int) error {
	if i <= 0 || i >= len(d.shards) {
		return fmt.Errorf("core: no crashable shard %d", i)
	}
	s := d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.down {
		return fmt.Errorf("core: shard %s already down", s.name)
	}
	return s.stop()
}

// RestartShard revives a crashed shard on a fresh transport endpoint
// with an empty index; anti-entropy reconciliation repopulates it from
// the surviving fleet.
func (d *Deployment) RestartShard(i int) error {
	if i <= 0 || i >= len(d.shards) {
		return fmt.Errorf("core: no restartable shard %d", i)
	}
	s := d.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.down {
		return fmt.Errorf("core: shard %s is running", s.name)
	}
	if err := d.bootShard(s); err != nil {
		return err
	}
	s.start(d.shardAddrs)
	return nil
}

// Tracer returns the deployment's shared tracer (nil without Tracing;
// nil is a valid no-op tracer).
func (d *Deployment) Tracer() *trace.Tracer { return d.tracer }

// TraceCollector returns the shared span collector (nil without
// Tracing).
func (d *Deployment) TraceCollector() *trace.Collector { return d.tracer.Collector() }

// Reasoner returns the deployment's compiled ontology reasoner.
func (d *Deployment) Reasoner() *ontology.Reasoner { return d.reasoner }

// RendezvousAddr returns the rendezvous transport address.
func (d *Deployment) RendezvousAddr() string { return d.rdvPeer.Addr() }

// Rendezvous returns the rendezvous service (introspection).
func (d *Deployment) Rendezvous() *p2p.RendezvousService { return d.rdvSvc }

// IDGen returns the deployment's ID generator.
func (d *Deployment) IDGen() *p2p.IDGen { return d.gen }

// Close shuts every service, group and index node (the rendezvous
// among them) down.
func (d *Deployment) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	groups := make([]*Group, 0, len(d.groups))
	for _, g := range d.groups {
		groups = append(groups, g)
	}
	services := make([]*Service, 0, len(d.services))
	for _, s := range d.services {
		services = append(services, s)
	}
	d.mu.Unlock()

	var firstErr error
	for _, s := range services {
		if err := s.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	for _, g := range groups {
		if err := g.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Node 0 carries the rendezvous: it goes last.
	for i := len(d.shards) - 1; i >= 0; i-- {
		s := d.shards[i]
		s.mu.Lock()
		if !s.down {
			if err := s.stop(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		s.mu.Unlock()
	}
	return firstErr
}

// ReplicaSpec describes one b-peer replica.
type ReplicaSpec struct {
	// Name names the replica; empty derives "<group>-<index>".
	Name string
	// QoS is the advertised profile (shared group default when zero).
	QoS qos.Profile
	// Handler implements the replica's functionality; required unless
	// GroupSpec.Handler is set.
	Handler bpeer.Handler
	// FailStop classifies handler errors that should fail-stop the
	// replica (see bpeer.Config.FailStop); nil inherits the group's.
	FailStop func(error) bool
}

// GroupSpec describes a b-peer group to deploy.
type GroupSpec struct {
	// Name names the group (also its advertised Name).
	Name string
	// Signature is the group's semantic signature.
	Signature ontology.Signature
	// QoS is the default advertised profile for replicas.
	QoS qos.Profile
	// Handler is the default handler for replicas without their own.
	Handler bpeer.Handler
	// FailStop is the default fail-stop classifier for replicas.
	FailStop func(error) bool
	// LoadSharing deploys the group with bpeer.PolicyLoadSharing:
	// every replica serves requests (read-mostly services).
	LoadSharing bool
	// NoJournal disables the replicated operation journal for the
	// group (exactly-once keyed execution is on by default for
	// coordinator-serving groups; see internal/replog).
	NoJournal bool
	// ReadOnlyOps lists operations every replica may serve locally
	// behind the read-index barrier (see internal/bpeer/read.go).
	// Requires the journal; handlers for these ops must tolerate
	// concurrent invocation.
	ReadOnlyOps []string
	// ReadLease bounds how long a follower reuses a fetched read
	// index before asking the coordinator again; zero selects the
	// bpeer default.
	ReadLease time.Duration
	// Replicas lists the replicas; Replicas==nil with Count>0 deploys
	// Count uniform replicas.
	Replicas []ReplicaSpec
	// Count is the uniform replica count when Replicas is nil.
	Count int
}

// Group is a deployed b-peer group.
type Group struct {
	name      string
	gid       p2p.ID
	transport TransportFactory // for crash–restart churn

	mu     sync.Mutex
	peers  []*bpeer.BPeer
	closed bool
}

// DeployGroup starts the group's replicas and waits for them to agree
// on a coordinator.
func (d *Deployment) DeployGroup(ctx context.Context, spec GroupSpec) (*Group, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("core: group requires a name")
	}
	replicas := spec.Replicas
	if replicas == nil {
		if spec.Count <= 0 {
			return nil, fmt.Errorf("core: group %s has no replicas", spec.Name)
		}
		replicas = make([]ReplicaSpec, spec.Count)
	}
	d.mu.Lock()
	if _, exists := d.groups[spec.Name]; exists {
		d.mu.Unlock()
		return nil, fmt.Errorf("core: group %s already deployed", spec.Name)
	}
	d.mu.Unlock()

	g := &Group{name: spec.Name, gid: d.gen.New(p2p.GroupIDKind), transport: d.cfg.Transport}
	// A group that fails to deploy is not registered, so Deployment.Close
	// will never see it: stop the replicas already running here.
	fail := func(err error) (*Group, error) {
		_ = g.Close()
		return nil, err
	}
	for i, rs := range replicas {
		name := rs.Name
		if name == "" {
			name = fmt.Sprintf("%s-%d", spec.Name, i)
		}
		handler := rs.Handler
		if handler == nil {
			handler = spec.Handler
		}
		if handler == nil {
			return fail(fmt.Errorf("core: replica %s has no handler", name))
		}
		profile := rs.QoS
		if profile == (qos.Profile{}) {
			profile = spec.QoS
		}
		failStop := rs.FailStop
		if failStop == nil {
			failStop = spec.FailStop
		}
		tr, err := d.cfg.Transport(name)
		if err != nil {
			return fail(fmt.Errorf("core: transport %s: %w", name, err))
		}
		bp, err := bpeer.New(tr, bpeer.Config{
			Name:              name,
			Rank:              int64(i + 1),
			GroupID:           g.gid,
			GroupName:         spec.Name,
			Signature:         spec.Signature,
			QoS:               profile,
			RendezvousAddr:    d.rdvPeer.Addr(),
			ShardAddrs:        d.shardAddrs,
			Handler:           handler,
			IDGen:             d.gen,
			HeartbeatInterval: d.cfg.Timings.HeartbeatInterval,
			HeartbeatTimeout:  d.cfg.Timings.HeartbeatTimeout,
			ElectionTimeout:   d.cfg.Timings.ElectionTimeout,
			LeaseInterval:     d.cfg.Timings.LeaseInterval,
			LoadSharing:       spec.LoadSharing,
			NoJournal:         spec.NoJournal,
			ReadOnlyOps:       spec.ReadOnlyOps,
			ReadLease:         spec.ReadLease,
			FailStop:          failStop,
			Tracer:            d.tracer,
		})
		if err != nil {
			// No replica owns the endpoint yet.
			_ = tr.Close()
			return fail(fmt.Errorf("core: bpeer %s: %w", name, err))
		}
		if err := bp.Start(ctx); err != nil {
			// A failed Start has shut the replica down itself.
			return fail(fmt.Errorf("core: start %s: %w", name, err))
		}
		g.peers = append(g.peers, bp)
	}
	if err := g.WaitReady(ctx); err != nil {
		return fail(err)
	}
	d.mu.Lock()
	d.groups[spec.Name] = g
	d.mu.Unlock()
	return g, nil
}

// Name returns the group name.
func (g *Group) Name() string { return g.name }

// ID returns the group ID.
func (g *Group) ID() p2p.ID { return g.gid }

// Peers returns the group's replicas, including crashed ones that may
// be restarted.
func (g *Group) Peers() []*bpeer.BPeer {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*bpeer.BPeer(nil), g.peers...)
}

// RunningPeers returns only the replicas that are currently up.
func (g *Group) RunningPeers() []*bpeer.BPeer {
	var out []*bpeer.BPeer
	for _, p := range g.Peers() {
		if p.Running() {
			out = append(out, p)
		}
	}
	return out
}

// Coordinator returns the address of the current coordinator ("" when
// unknown). Only running replicas are consulted: a crashed replica
// still reports its last known (stale) coordinator.
func (g *Group) Coordinator() string {
	for _, p := range g.RunningPeers() {
		if c := p.Coordinator(); c != "" {
			return c
		}
	}
	return ""
}

// WaitReady blocks until all running replicas agree on a coordinator
// that is itself one of the running replicas.
func (g *Group) WaitReady(ctx context.Context) error {
	for {
		peers := g.RunningPeers()
		if len(peers) > 0 {
			coord := peers[0].Coordinator()
			agreed := coord != ""
			live := false
			for _, p := range peers {
				if p.Coordinator() != coord {
					agreed = false
					break
				}
				if p.Addr() == coord {
					live = true
				}
			}
			if agreed && live {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("core: group %s not ready: %w", g.name, ctx.Err())
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// CrashPeer abruptly crashes the named replica (no farewell traffic).
// Unlike CrashCoordinator it keeps the replica in the group so it can
// later be revived with RestartPeer; the chaos engine drives churn
// through this pair.
func (g *Group) CrashPeer(name string) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, p := range g.peers {
		if p.Name() == name {
			if !p.Running() {
				return fmt.Errorf("core: replica %s is not running", name)
			}
			return p.Crash()
		}
	}
	return fmt.Errorf("core: replica %s not found in group %s", name, g.name)
}

// RestartPeer revives a crashed (or gracefully closed) replica on a
// fresh transport endpoint: it rejoins the rendezvous, re-publishes
// its advertisements and re-enters the Bully election.
func (g *Group) RestartPeer(ctx context.Context, name string) error {
	g.mu.Lock()
	var target *bpeer.BPeer
	for _, p := range g.peers {
		if p.Name() == name {
			target = p
			break
		}
	}
	transport := g.transport
	g.mu.Unlock()
	if target == nil {
		return fmt.Errorf("core: replica %s not found in group %s", name, g.name)
	}
	if target.Running() {
		return fmt.Errorf("core: replica %s is already running", name)
	}
	tr, err := transport(name)
	if err != nil {
		return fmt.Errorf("core: transport %s: %w", name, err)
	}
	return target.Restart(ctx, tr)
}

// CrashCoordinator crashes the current coordinator replica and returns
// its name; the experiment harness uses it to measure failover.
func (g *Group) CrashCoordinator() (string, error) {
	coord := g.Coordinator()
	if coord == "" {
		return "", fmt.Errorf("core: group %s has no coordinator", g.name)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, p := range g.peers {
		if p.Addr() == coord {
			name := p.Name()
			if err := p.Crash(); err != nil {
				return "", err
			}
			g.peers = append(g.peers[:i], g.peers[i+1:]...)
			return name, nil
		}
	}
	return "", fmt.Errorf("core: coordinator %s not found among replicas", coord)
}

// Close shuts all replicas down.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	peers := append([]*bpeer.BPeer(nil), g.peers...)
	g.mu.Unlock()
	var firstErr error
	for _, p := range peers {
		if err := p.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// NewProxy creates a standalone SWS-proxy on this deployment (services
// create their own; experiments sometimes want a bare proxy).
func (d *Deployment) NewProxy(name string, opts ProxyOptions) (*proxy.SWSProxy, error) {
	tr, err := d.cfg.Transport(name)
	if err != nil {
		return nil, fmt.Errorf("core: proxy transport: %w", err)
	}
	p, err := proxy.New(tr, proxy.Config{
		Name:             name,
		RendezvousAddr:   d.rdvPeer.Addr(),
		ShardAddrs:       d.shardAddrs,
		Reasoner:         d.reasoner,
		MinDegree:        opts.MinDegree,
		Translator:       opts.Translator,
		IDGen:            d.gen,
		BindTimeout:      d.cfg.Timings.BindTimeout,
		CallTimeout:      d.cfg.Timings.CallTimeout,
		RetryDelay:       d.cfg.Timings.RetryDelay,
		RetryMaxDelay:    d.cfg.Timings.RetryMaxDelay,
		MaxAttempts:      opts.MaxAttempts,
		BreakerThreshold: d.cfg.Timings.BreakerThreshold,
		BreakerCooldown:  d.cfg.Timings.BreakerCooldown,
		Admission:        opts.Admission,
		ReadObserver:     opts.ReadObserver,
		Seed:             d.cfg.Seed,
		Tracer:           d.tracer,
	})
	if err != nil {
		return nil, err
	}
	p.Start()
	return p, nil
}

// ProxyOptions tunes a proxy created through the deployment.
type ProxyOptions struct {
	MinDegree   ontology.MatchDegree
	Translator  proxy.Translator
	MaxAttempts int
	// Admission is the overload-protection pipeline placed in front of
	// the proxy's circuit breakers; nil disables admission control.
	Admission *loadctl.Controller
	// ReadObserver is called for every follower-served read with the
	// read-index it was issued at and the committed sequence the
	// serving replica observed — wire it to chaos.Checker.RecordRead
	// to check the staleness invariant.
	ReadObserver func(replica string, readIndex, readSeq uint64)
}
