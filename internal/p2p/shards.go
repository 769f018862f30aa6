package p2p

import (
	"sync"

	"whisper/internal/gossip"
)

// DefaultShardReplicas is how many shards own each (advType, attr,
// value) triple when the caller does not say otherwise: the owner plus
// one replica keeps exact-match queries available through a single
// shard crash without scatter-gathering the whole fleet.
const DefaultShardReplicas = 2

// ShardRouter maps discovery index triples onto the index nodes of the
// discovery plane via a consistent-hash ring; a ring of one (the
// paper's single rendezvous) owns every triple. It is the read-side
// counterpart of the gossip replication: gossip makes every shard
// eventually hold every advertisement, while the router decides which
// shard is the freshest
// authority for a given triple — publishes land on the owner first, so
// exact-match queries routed to the owners see new advertisements
// before the epidemic has finished spreading them.
//
// Update swaps in a new ring atomically; concurrent readers keep the
// ring they resolved, so routing during a membership change is always
// against a consistent (old or new) view, never a torn one.
type ShardRouter struct {
	replicas int

	mu   sync.RWMutex
	ring *gossip.Ring
}

// NewShardRouter builds a router over the shard addresses. replicas <=
// 0 selects DefaultShardReplicas.
func NewShardRouter(addrs []string, replicas int) *ShardRouter {
	if replicas <= 0 {
		replicas = DefaultShardReplicas
	}
	return &ShardRouter{
		replicas: replicas,
		ring:     gossip.NewRing(addrs, gossip.DefaultVnodes),
	}
}

// Update rebuilds the ring over the new membership. Deterministic:
// every router fed the same membership computes the same ownership.
func (r *ShardRouter) Update(addrs []string) {
	ring := gossip.NewRing(addrs, gossip.DefaultVnodes)
	r.mu.Lock()
	r.ring = ring
	r.mu.Unlock()
}

// Replicas returns the configured replica count.
func (r *ShardRouter) Replicas() int { return r.replicas }

func (r *ShardRouter) current() *gossip.Ring {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.ring
}

// Owner returns the shard owning the triple ("" when the fleet is
// empty).
func (r *ShardRouter) Owner(advType, attr, value string) string {
	return r.current().Owner(advType, attr, value)
}

// AppendOwners appends the triple's replica set (owner first) onto dst
// and returns the extended slice.
func (r *ShardRouter) AppendOwners(dst []string, advType, attr, value string) []string {
	return r.current().AppendOwners(dst, advType, attr, value, r.replicas)
}

// All returns the full shard membership (sorted), for scatter-gather
// wildcard queries. Callers must not mutate the slice.
func (r *ShardRouter) All() []string {
	return r.current().Members()
}
