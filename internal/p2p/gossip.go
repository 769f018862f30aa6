package p2p

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/simnet"
)

// GossipService runs one index node's side of the discovery plane: a
// gossip.Engine replicating the node's advertisement store across the
// fleet (a ring of one has nobody to replicate to: it sends nothing
// and runs no timer), served over the resolver on ProtoGossip so every
// publish, rumor, digest and delta frame is accounted in the network's
// per-protocol traffic breakdown.
//
// The store the engine maintains is the node's DiscoveryService's own,
// and the index is that store's view: an entry a publish or an exchange
// applies is queryable before Apply returns, and a death (tombstone,
// expiry, GC) has left the index by then.
type GossipService struct {
	peer     *Peer
	resolver *Resolver
	disco    *DiscoveryService
	engine   *gossip.Engine
}

// Gossip resolver handler names.
const (
	gossipPushHandler    = "gossip.push"
	gossipSyncHandler    = "gossip.sync"
	gossipDeltaHandler   = "gossip.delta"
	gossipPublishHandler = "gossip.publish"
)

// GossipConfig tunes an index node's gossip engine.
type GossipConfig struct {
	// Clock supplies time; nil selects the wall clock.
	Clock simnet.Clock
	// Seed makes the engine's peer selection and jitter deterministic.
	Seed int64
	// Interval tunes the engine's rumor rounds (zero selects the engine
	// default; reconciliation runs at the engine default for it).
	Interval time.Duration
}

// NewIndexNode makes the peer a member of the discovery plane: a
// DiscoveryService answering queries from its store, timed by the
// config's clock, and a GossipService accepting publishes into that
// store and replicating it. Every rendezvous and every shard is built
// here. Start the peer, SetPeers the fleet (a ring of one needs none)
// and Run.
func NewIndexNode(peer *Peer, cfg GossipConfig) (*GossipService, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = simnet.WallClock{}
	}
	g := &GossipService{
		peer:     peer,
		resolver: NewResolverOn(peer, ProtoGossip),
		disco:    newDiscoveryService(peer, clock),
	}
	engine, err := gossip.NewEngine(gossip.Config{
		Self:      peer.Addr(),
		Transport: resolverTransport{res: g.resolver},
		Store:     g.disco.store,
		Clock:     clock,
		Seed:      cfg.Seed,
		Interval:  cfg.Interval,
	})
	if err != nil {
		return nil, err
	}
	g.engine = engine
	g.resolver.RegisterHandler(gossipPushHandler, g.servePush)
	g.resolver.RegisterHandler(gossipSyncHandler, g.serveSync)
	g.resolver.RegisterHandler(gossipDeltaHandler, g.serveDelta)
	g.resolver.RegisterHandler(gossipPublishHandler, g.servePublish)
	ServeStatus(peer, "gossip", g.status)
	return g, nil
}

// Discovery returns the node's discovery service, whose store the engine
// replicates.
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
// (a back-end peer's lease refresh, or its graceful-leave tombstone). A
// membership — or the tombstone of one this node holds — is answered
// with the group's other live members (GossipClient.PublishMember); any other
// entry with whether it applied.
func (g *GossipService) servePublish(_ string, payload []byte) ([]byte, error) {
	e, _, err := gossip.DecodeEntry(payload)
	if err != nil {
		return nil, fmt.Errorf("gossip: bad publish frame: %w", err)
	}
	key := ID(e.Key)
	left := g.disco.groupOf(key)
	res := g.engine.Learn(e)
	if gid := cmp.Or(g.disco.groupOf(key), left); gid != "" {
		return encodeDocs(g.disco.lookupDocs(memberQuery(gid), key)), nil
	}
	if res.Applied {
		return []byte("applied"), nil
	}
	return []byte("stale"), nil
}

// GossipStatus is an index node's section of its peer's status answer
// (peerctl status, shards): the gossip engine's and its store's
// counters.
type GossipStatus struct {
	Engine gossip.EngineStats
	Store  gossip.StoreStats
}

// status sweeps the store first, as a lookup does, so Live counts no
// entry past its deadline.
func (g *GossipService) status() any {
	store := g.engine.Store()
	store.SweepExpired()
	return GossipStatus{Engine: g.engine.Stats(), Store: store.Stats()}
}

// resolverTransport carries gossip exchanges as resolver queries on
// ProtoGossip.
type resolverTransport struct{ res *Resolver }

func (t resolverTransport) Exchange(ctx context.Context, to, kind string, payload []byte) ([]byte, error) {
	return t.res.Query(ctx, to, "gossip."+kind, payload)
}

// GossipClient is the publish-side client used by peers that are not
// themselves shards: back-end peers push their membership and semantic
// advertisement (and, on graceful leave, tombstones) to the owners.
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

// PublishMember publishes one membership entry to the owners of its
// group's member list (ShardRouter.MemberOwners) and returns the other
// live members they answered with, each once. A membership is the
// member's PeerAdvertisement naming the group in GID, stored under its
// PID like any advertisement, so it expires by the advertisements' one
// rule on one clock: a join or a renewal is an entry with the member's
// lease, a leave is a tombstone. It fails when no owner answered with a
// list.
func (c *GossipClient) PublishMember(ctx context.Context, owners []string, e gossip.Entry) ([]*PeerAdvertisement, error) {
	var members []*PeerAdvertisement
	var answered bool
	var lastErr error
	err := c.res.Propagate(ctx, owners, gossipPublishHandler, gossip.AppendEntry(nil, &e), func(resp Response) bool {
		docs, err := decodeDocs(resp.Payload)
		if err = cmp.Or(resp.Err, err); err != nil {
			lastErr = fmt.Errorf("%s: %w", resp.From, err)
			return false
		}
		answered = true
		for _, raw := range docs {
			adv := &PeerAdvertisement{}
			if adv.UnmarshalAdv(raw) == nil && !slices.ContainsFunc(members, func(m *PeerAdvertisement) bool { return m.PID == adv.PID }) {
				members = append(members, adv)
			}
		}
		return false
	})
	if !answered {
		return nil, fmt.Errorf("membership publish: %w", cmp.Or(err, lastErr))
	}
	return members, nil
}
