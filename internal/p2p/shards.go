package p2p

import (
	"whisper/internal/gossip"
)

// DefaultShardReplicas is how many shards own each (advType, attr,
// value) triple: the owner plus one replica keeps exact-match queries
// available through a single shard crash without scatter-gathering the
// whole fleet.
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
// The ring is fixed at construction, so a router is safe for
// concurrent use.
type ShardRouter struct {
	ring *gossip.Ring
}

// NewShardRouter builds a router over the shard addresses.
func NewShardRouter(addrs []string) *ShardRouter {
	return &ShardRouter{ring: gossip.NewRing(addrs, gossip.DefaultVnodes)}
}

// Owner returns the shard owning the triple ("" when the fleet is
// empty).
func (r *ShardRouter) Owner(advType, attr, value string) string {
	return r.ring.Owner(advType, attr, value)
}

// AppendOwners appends the triple's DefaultShardReplicas owners (owner
// first) onto dst and returns the extended slice.
func (r *ShardRouter) AppendOwners(dst []string, advType, attr, value string) []string {
	return r.ring.AppendOwners(dst, advType, attr, value, DefaultShardReplicas)
}

// All returns the full shard membership (sorted), for scatter-gather
// wildcard queries. Callers must not mutate the slice.
func (r *ShardRouter) All() []string {
	return r.ring.Members()
}
