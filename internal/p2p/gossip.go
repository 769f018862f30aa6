package p2p

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/simnet"
)

// GossipService runs one index node's side of the discovery plane: a
// gossip.Engine holding the versioned, tombstoned advertisement set and
// replicating it across the fleet (a ring of one has nobody to
// replicate to and sends nothing), served over the resolver on
// ProtoGossip so every publish, rumor, digest and delta frame is
// accounted in the network's per-protocol traffic breakdown.
//
// The service projects the store into the node's DiscoveryService — the
// only way an advertisement enters an index node: a live entry becomes
// a cached advertisement whose lifetime is the remaining time to the
// entry's absolute expiry; a death (tombstone, expiry, GC) flushes it.
// Queries then hit the ordinary discovery index.
type GossipService struct {
	peer     *Peer
	resolver *Resolver
	disco    *DiscoveryService
	engine   *gossip.Engine
	clock    simnet.Clock
}

// Gossip resolver handler names.
const (
	gossipPushHandler    = "gossip.push"
	gossipSyncHandler    = "gossip.sync"
	gossipDeltaHandler   = "gossip.delta"
	gossipPublishHandler = "gossip.publish"
	gossipStatsHandler   = "gossip.stats"
)

// GossipConfig tunes an index node's gossip engine.
type GossipConfig struct {
	// Clock supplies time; nil selects the wall clock.
	Clock simnet.Clock
	// Seed makes the engine's peer selection and jitter deterministic.
	Seed int64
	// Interval / ReconcileInterval tune the engine (zero values select
	// the engine defaults).
	Interval          time.Duration
	ReconcileInterval time.Duration
}

// NewIndexNode makes the peer a member of the discovery plane: a
// DiscoveryService answering queries and a GossipService accepting
// publishes and feeding that index. Every rendezvous and every shard is
// built here. Start the peer, SetPeers the fleet (a ring of one needs
// none) and Run.
func NewIndexNode(peer *Peer, cfg GossipConfig) (*GossipService, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = simnet.WallClock{}
	}
	g := &GossipService{
		peer:     peer,
		resolver: NewResolverOn(peer, ProtoGossip),
		disco:    NewDiscoveryService(peer),
		clock:    clock,
	}
	store := gossip.NewStore(clock, 0)
	store.OnApply(g.mirror)
	engine, err := gossip.NewEngine(gossip.Config{
		Self:              peer.Addr(),
		Transport:         resolverTransport{res: g.resolver},
		Store:             store,
		Clock:             clock,
		Seed:              cfg.Seed,
		Interval:          cfg.Interval,
		ReconcileInterval: cfg.ReconcileInterval,
	})
	if err != nil {
		return nil, err
	}
	g.engine = engine
	g.resolver.RegisterHandler(gossipPushHandler, g.servePush)
	g.resolver.RegisterHandler(gossipSyncHandler, g.serveSync)
	g.resolver.RegisterHandler(gossipDeltaHandler, g.serveDelta)
	g.resolver.RegisterHandler(gossipPublishHandler, g.servePublish)
	g.resolver.RegisterHandler(gossipStatsHandler, g.serveStats)
	return g, nil
}

// mirror projects store state changes into the local discovery cache.
// Called with the store lock held (see Store.OnApply): it must not call
// back into the store, and the discovery service never does.
func (g *GossipService) mirror(e gossip.Entry, live bool) {
	id := ID(e.Key)
	if !live {
		g.disco.Flush(id)
		return
	}
	adv, err := ParseAdvertisement(e.Payload)
	if err != nil {
		return
	}
	lifetime := time.Duration(e.Expire - g.clock.Now().UnixNano())
	if lifetime <= 0 {
		return
	}
	g.disco.ingest(adv, e.Payload, lifetime)
}

// Discovery returns the index the service feeds.
func (g *GossipService) Discovery() *DiscoveryService { return g.disco }

// Engine returns the underlying gossip engine.
func (g *GossipService) Engine() *gossip.Engine { return g.engine }

// Run starts the engine's rumor and reconciliation rounds. They stop
// with Stop or when the peer closes.
func (g *GossipService) Run() {
	g.engine.Run()
	go func() {
		<-g.peer.Done()
		g.engine.Stop()
	}()
}

// Stop halts the engine.
func (g *GossipService) Stop() { g.engine.Stop() }

// SetPeers replaces the gossip peer set (the shard fleet's addresses;
// self is filtered by the engine).
func (g *GossipService) SetPeers(addrs []string) { g.engine.SetPeers(addrs) }

// servePush / serveSync / serveDelta adapt the engine's frame handlers
// onto resolver queries.
func (g *GossipService) servePush(_ string, payload []byte) ([]byte, error) {
	return g.engine.HandlePush(payload)
}

func (g *GossipService) serveSync(_ string, payload []byte) ([]byte, error) {
	return g.engine.HandleSync(payload)
}

func (g *GossipService) serveDelta(_ string, payload []byte) ([]byte, error) {
	return g.engine.HandleDelta(payload)
}

// servePublish accepts one wire-encoded entry from a publishing client
// (a back-end peer's lease refresh, or its graceful-leave tombstone).
func (g *GossipService) servePublish(_ string, payload []byte) ([]byte, error) {
	e, _, err := gossip.DecodeEntry(payload)
	if err != nil {
		return nil, fmt.Errorf("gossip: bad publish frame: %w", err)
	}
	res := g.engine.Learn(e)
	if res.Applied {
		return []byte("applied"), nil
	}
	return []byte("stale"), nil
}

// serveStats renders engine and store counters as sorted key=value
// lines (peerctl's gossip command prints them verbatim).
func (g *GossipService) serveStats(_ string, _ []byte) ([]byte, error) {
	es := g.engine.Stats()
	ss := g.engine.Store().Stats()
	kv := map[string]uint64{
		"rounds":         es.Rounds,
		"reconciles":     es.Reconciles,
		"queue_depth":    uint64(es.QueueDepth),
		"rumors_queued":  es.RumorsQueued,
		"rumors_retired": es.RumorsRetired,
		"pushes_sent":    es.PushesSent,
		"push_failures":  es.PushFailures,
		"entries_pushed": es.EntriesPushed,
		"delta_sent":     es.DeltaSent,
		"delta_recv":     es.DeltaRecv,
		"peers":          uint64(es.Peers),
		"entries":        uint64(ss.Entries),
		"live":           uint64(ss.Live),
		"origins":        uint64(ss.Origins),
		"applied":        uint64(ss.Applied),
		"rejected":       uint64(ss.Rejected),
		"expired":        ss.Expired,
		"collected":      ss.Collected,
		"checksum":       ss.Checksum,
	}
	keys := make([]string, 0, len(kv))
	for k := range kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []byte
	for _, k := range keys {
		out = append(out, k...)
		out = append(out, '=')
		out = strconv.AppendUint(out, kv[k], 10)
		out = append(out, '\n')
	}
	return out, nil
}

// resolverTransport carries gossip exchanges as resolver queries on
// ProtoGossip.
type resolverTransport struct{ res *Resolver }

func (t resolverTransport) Exchange(ctx context.Context, to, kind string, payload []byte) ([]byte, error) {
	return t.res.Query(ctx, to, "gossip."+kind, payload)
}

// GossipClient is the publish-side client used by peers that are not
// themselves shards: back-end peers push their semantic advertisement
// (and, on graceful leave, its tombstone) to the owning shard, and
// peerctl fetches shard stats.
type GossipClient struct {
	res *Resolver
}

// NewGossipClient attaches a gossip client to the peer. The peer must
// not also run a GossipService (both claim ProtoGossip).
func NewGossipClient(peer *Peer) *GossipClient {
	return &GossipClient{res: NewResolverOn(peer, ProtoGossip)}
}

// Publish pushes one entry to a shard. The returned bool is true when
// the shard applied it (false means the shard already held a newer
// version — a stale publisher should re-mint and retry).
func (c *GossipClient) Publish(ctx context.Context, shard string, e gossip.Entry) (bool, error) {
	frame := gossip.AppendEntry(nil, &e)
	reply, err := c.res.Query(ctx, shard, gossipPublishHandler, frame)
	if err != nil {
		return false, err
	}
	return string(reply) == "applied", nil
}

// Stats fetches a shard's gossip counters as key=value lines.
func (c *GossipClient) Stats(ctx context.Context, shard string) (string, error) {
	reply, err := c.res.Query(ctx, shard, gossipStatsHandler, nil)
	if err != nil {
		return "", err
	}
	return string(reply), nil
}
