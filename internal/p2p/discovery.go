package p2p

import (
	"context"
	"encoding/xml"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"whisper/internal/gossip"
)

// DiscoveryService implements JXTA's discovery protocol: a local
// advertisement cache with expirations and remote queries answered from
// other peers' caches (remote publication is the discovery plane's job,
// see NewIndexNode). Queries select by advertisement type plus an
// optional attribute/value predicate, where the value may use a leading
// or trailing '*' wildcard — exactly the getLocalAdvertisements(type,
// attr, value) surface the paper's SWS-proxy pseudocode is written
// against.
//
// The cache keeps two secondary structures (the SRDI-style index):
// entries grouped by advertisement type, and an exact-match index keyed
// by (advType, attr, value) over every attribute an advertisement
// exposes. Exact queries are answered from the index without scanning;
// wildcard queries scan only the requested type's entries. Expired
// entries are evicted lazily on lookup and proactively by a jittered
// janitor tied to the peer's lifetime, so the index never serves a
// stale advertisement.
type DiscoveryService struct {
	peer     *Peer
	resolver *Resolver

	mu     sync.Mutex
	cache  map[ID]*cacheEntry
	byType map[string]map[ID]*cacheEntry
	index  map[indexKey]map[ID]*cacheEntry
	// Generations are split so derived caches can validate at the right
	// granularity: memberGen moves on membership-shaped mutations
	// (publish, explicit flush), while expiry churn only moves the
	// generation of the evicted entry's action partition. A hot shard
	// evicting thousands of leases per sweep then invalidates only the
	// match-cache results that could actually contain them, not the
	// whole cache.
	memberGen uint64
	partGen   [GenPartitions]uint64
	stats     DiscoveryStats
	now       func() time.Time
}

// GenPartitions is how many expiry-generation partitions the cache
// tracks. Entries hash onto a partition by their (advType, action)
// pair — see ActionPartition.
const GenPartitions = 16

// ActionPartition maps an (advType, action-attribute) pair onto its
// expiry-generation partition. Derived caches stamp their results with
// the partitions of the advertisements they contain and revalidate
// against PartitionGen.
func ActionPartition(advType, action string) uint32 {
	return uint32(gossip.HashTriple(advType, "action", action) % GenPartitions)
}

type cacheEntry struct {
	adv Advertisement
	// raw is the advertisement's document as published; remote queries
	// are answered with these bytes.
	raw []byte
	// attrs caches adv.Attributes() from publish time: every
	// implementation builds a fresh map per call, so wildcard scans
	// (which probe one attribute per cached entry) would otherwise
	// allocate a map per entry per query.
	attrs   map[string]string
	expires time.Time
}

// indexKey addresses one exact-match posting set of the secondary
// index.
type indexKey struct {
	advType string
	attr    string
	value   string
}

// DiscoveryStats snapshots the cache's index effectiveness counters
// (peerctl's cache command reports them).
type DiscoveryStats struct {
	// Size is the number of live cached advertisements.
	Size int
	// IndexKeys is the number of (advType, attr, value) posting sets.
	IndexKeys int
	// Hits counts queries answered entirely from the secondary index.
	Hits uint64
	// Misses counts queries that fell back to scanning (wildcard values
	// or untyped queries).
	Misses uint64
	// Expired counts entries evicted because their lifetime passed.
	Expired uint64
	// Flushed counts entries removed by explicit Flush.
	Flushed uint64
	// Sweeps counts FlushExpired runs (janitor ticks included).
	Sweeps uint64
}

// discoveryQueryHandler is the discovery resolver handler name.
const discoveryQueryHandler = "discovery.query"

// DefaultJanitorInterval is the base period of the expired-entry
// sweeper; each tick is jittered ±25% so co-located peers don't sweep
// in lockstep.
const DefaultJanitorInterval = time.Second

// NewDiscoveryService attaches a discovery service to the peer. It
// claims the ProtoDiscovery protocol tag so discovery traffic is
// accounted separately from other resolver traffic, and starts the
// expired-advertisement janitor, which stops when the peer closes.
func NewDiscoveryService(peer *Peer) *DiscoveryService {
	return newDiscoveryService(peer, DefaultJanitorInterval)
}

func newDiscoveryService(peer *Peer, janitorEvery time.Duration) *DiscoveryService {
	EnsureBuiltinAdvTypes()
	d := &DiscoveryService{
		peer:     peer,
		resolver: NewResolverOn(peer, ProtoDiscovery),
		cache:    make(map[ID]*cacheEntry),
		byType:   make(map[string]map[ID]*cacheEntry),
		index:    make(map[indexKey]map[ID]*cacheEntry),
		now:      time.Now,
	}
	d.resolver.RegisterHandler(discoveryQueryHandler, d.answerQuery)
	if janitorEvery > 0 {
		go d.janitor(janitorEvery)
	}
	return d
}

// janitor sweeps expired advertisements on a jittered ticker so an
// entry whose lifetime passed is removed from the index even when no
// query ever touches it. The jitter is seeded from the peer's ID, so a
// deployment of many peers spreads its sweeps deterministically.
func (d *DiscoveryService) janitor(every time.Duration) {
	h := fnv.New64a()
	_, _ = h.Write([]byte(d.peer.ID()))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	for {
		// every ± 25% jitter.
		jitter := time.Duration(rng.Int63n(int64(every)/2+1)) - every/4
		t := time.NewTimer(every + jitter)
		select {
		case <-t.C:
			d.FlushExpired()
		case <-d.peer.Done():
			t.Stop()
			return
		}
	}
}

// Publish stores the advertisement in the local cache for the given
// lifetime (DefaultLifetime if zero) and indexes it under every
// attribute it exposes.
func (d *DiscoveryService) Publish(adv Advertisement, lifetime time.Duration) error {
	raw, err := adv.MarshalAdv()
	if err != nil {
		return fmt.Errorf("discovery: marshal %s: %w", adv.AdvType(), err)
	}
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	d.ingest(adv, raw, lifetime)
	return nil
}

// ingest caches adv, whose marshalled document is raw, for lifetime.
// The store projection of an index node (GossipService.mirror) hands in
// the payload bytes its store already holds, so the node keeps one copy.
func (d *DiscoveryService) ingest(adv Advertisement, raw []byte, lifetime time.Duration) {
	id := adv.AdvID()
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.cache[id]; ok {
		// Re-publication may change attributes: unindex the old entry
		// so the index never holds dangling postings.
		d.unindexLocked(id, old)
	}
	e := &cacheEntry{adv: adv, raw: raw, attrs: adv.Attributes(), expires: d.now().Add(lifetime)}
	d.cache[id] = e
	d.indexLocked(id, e)
	d.memberGen++
}

// indexLocked inserts the entry into the type set and the exact-match
// index. Callers hold d.mu.
func (d *DiscoveryService) indexLocked(id ID, e *cacheEntry) {
	advType := e.adv.AdvType()
	ts := d.byType[advType]
	if ts == nil {
		ts = make(map[ID]*cacheEntry)
		d.byType[advType] = ts
	}
	ts[id] = e
	for attr, value := range e.attrs {
		k := indexKey{advType: advType, attr: attr, value: value}
		set := d.index[k]
		if set == nil {
			set = make(map[ID]*cacheEntry)
			d.index[k] = set
		}
		set[id] = e
	}
}

// unindexLocked removes the entry from the cache, the type set and the
// exact-match index. Callers hold d.mu and bump the generation
// matching the mutation's cause (memberGen for publish/flush, the
// entry's action partition for expiry).
func (d *DiscoveryService) unindexLocked(id ID, e *cacheEntry) {
	delete(d.cache, id)
	advType := e.adv.AdvType()
	if ts := d.byType[advType]; ts != nil {
		delete(ts, id)
		if len(ts) == 0 {
			delete(d.byType, advType)
		}
	}
	for attr, value := range e.attrs {
		k := indexKey{advType: advType, attr: attr, value: value}
		if set := d.index[k]; set != nil {
			delete(set, id)
			if len(set) == 0 {
				delete(d.index, k)
			}
		}
	}
}

// expireLocked evicts an entry whose lifetime passed: only the entry's
// action partition generation moves. Callers hold d.mu.
func (d *DiscoveryService) expireLocked(id ID, e *cacheEntry) {
	d.unindexLocked(id, e)
	d.partGen[ActionPartition(e.adv.AdvType(), e.attrs["action"])]++
	d.stats.Expired++
}

// Flush removes the advertisement with the given ID from the cache and
// the index.
func (d *DiscoveryService) Flush(id ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.cache[id]; ok {
		d.unindexLocked(id, e)
		d.memberGen++
		d.stats.Flushed++
	}
}

// FlushExpired drops expired entries and reports how many were
// removed.
func (d *DiscoveryService) FlushExpired() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Sweeps++
	now := d.now()
	removed := 0
	for id, e := range d.cache {
		if e.expires.Before(now) {
			d.expireLocked(id, e)
			removed++
		}
	}
	return removed
}

// Gen returns the cache's aggregate generation: a counter that moves
// on every mutation (publish, flush, expiry). Callers wanting coarse
// "did anything change" validation use it; callers that can afford
// finer invalidation combine MemberGen with PartitionGen instead.
func (d *DiscoveryService) Gen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	g := d.memberGen
	for _, p := range d.partGen {
		g += p
	}
	return g
}

// MemberGen returns the membership generation: bumped on publish and
// explicit flush, but not on expiry.
func (d *DiscoveryService) MemberGen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memberGen
}

// PartitionGen returns the expiry generation of one action partition
// (see ActionPartition). part is taken modulo GenPartitions.
func (d *DiscoveryService) PartitionGen(part uint32) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.partGen[part%GenPartitions]
}

// Stats snapshots the cache counters.
func (d *DiscoveryService) Stats() DiscoveryStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Size = len(d.cache)
	s.IndexKeys = len(d.index)
	return s
}

// GetLocalAdvertisements returns live cached advertisements of the
// given type matching the attribute predicate. Empty attr matches
// everything of the type. Results are sorted by advertisement ID for
// determinism.
//
// Exact attribute queries — the hot path of the proxy's
// findPeerGroupAdv — are answered from the (advType, attr, value)
// index in O(results). Wildcard values scan only the type's entries;
// an empty advType scans the whole cache (introspection tooling only).
func (d *DiscoveryService) GetLocalAdvertisements(advType, attr, value string) []Advertisement {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()

	collect := func(entries map[ID]*cacheEntry, check func(*cacheEntry) bool) []Advertisement {
		out := make([]Advertisement, 0, len(entries))
		for id, e := range entries {
			if e.expires.Before(now) {
				d.expireLocked(id, e)
				continue
			}
			if check != nil && !check(e) {
				continue
			}
			out = append(out, e.adv)
		}
		sort.Slice(out, func(i, j int) bool { return out[i].AdvID() < out[j].AdvID() })
		return out
	}

	switch {
	case advType == "":
		// Untyped query: full scan (peerctl-style introspection).
		d.stats.Misses++
		return collect(d.cache, func(e *cacheEntry) bool { return matchAttr(e.attrs, attr, value) })
	case attr == "":
		// Type-only query: the type set IS the result set.
		d.stats.Hits++
		return collect(d.byType[advType], nil)
	case hasWildcard(value):
		// Wildcard value: scan the type's entries only.
		d.stats.Misses++
		return collect(d.byType[advType], func(e *cacheEntry) bool { return matchAttr(e.attrs, attr, value) })
	default:
		// Exact query: straight index lookup.
		d.stats.Hits++
		return collect(d.index[indexKey{advType: advType, attr: attr, value: value}], nil)
	}
}

// hasWildcard reports whether the predicate value uses '*' matching.
func hasWildcard(value string) bool {
	return value == "*" || strings.HasPrefix(value, "*") || strings.HasSuffix(value, "*")
}

// matchAttr evaluates the attribute predicate with '*' wildcards at
// either end of the value, against the publish-time attribute cache
// (Advertisement.Attributes builds a fresh map per call; on the
// wildcard scan path that would be one map per entry per query).
func matchAttr(attrs map[string]string, attr, value string) bool {
	if attr == "" {
		return true
	}
	got, ok := attrs[attr]
	if !ok {
		return false
	}
	switch {
	case value == "*":
		return true
	case strings.HasPrefix(value, "*") && strings.HasSuffix(value, "*") && len(value) >= 2:
		return strings.Contains(got, value[1:len(value)-1])
	case strings.HasPrefix(value, "*"):
		return strings.HasSuffix(got, value[1:])
	case strings.HasSuffix(value, "*"):
		return strings.HasPrefix(got, value[:len(value)-1])
	default:
		return got == value
	}
}

// --- remote operations ------------------------------------------------

type discoveryQueryDoc struct {
	XMLName xml.Name `xml:"DiscoveryQuery"`
	Type    string   `xml:"Type"`
	Attr    string   `xml:"Attr,omitempty"`
	Value   string   `xml:"Value,omitempty"`
	Limit   int      `xml:"Limit,omitempty"`
}

type discoveryResponseDoc struct {
	XMLName xml.Name `xml:"DiscoveryResponse"`
	Advs    [][]byte `xml:"Adv"`
}

// RemoteGetAdvertisements queries the target peers' caches and returns
// up to limit unique advertisements (0 = unlimited), waiting for
// responses until every target answered or ctx expires.
func (d *DiscoveryService) RemoteGetAdvertisements(
	ctx context.Context,
	targets []string,
	advType, attr, value string,
	limit int,
) ([]Advertisement, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	q, err := xml.Marshal(discoveryQueryDoc{Type: advType, Attr: attr, Value: value, Limit: limit})
	if err != nil {
		return nil, fmt.Errorf("discovery: marshal query: %w", err)
	}
	seen := make(map[ID]bool)
	var out []Advertisement
	err = d.resolver.Propagate(ctx, targets, discoveryQueryHandler, q, func(resp Response) bool {
		if resp.Err != nil {
			return false
		}
		var doc discoveryResponseDoc
		if err := xml.Unmarshal(resp.Payload, &doc); err != nil {
			return false
		}
		for _, raw := range doc.Advs {
			adv, err := ParseAdvertisement(raw)
			if err != nil || seen[adv.AdvID()] {
				continue
			}
			seen[adv.AdvID()] = true
			out = append(out, adv)
			if limit > 0 && len(out) >= limit {
				return true
			}
		}
		return false
	})
	if err != nil && len(out) == 0 {
		return nil, fmt.Errorf("discovery: remote query: %w", err)
	}
	return out, nil
}

// answerQuery serves a remote discovery query from the local cache,
// replying with each advertisement's bytes as they were published.
func (d *DiscoveryService) answerQuery(_ string, payload []byte) ([]byte, error) {
	var q discoveryQueryDoc
	if err := xml.Unmarshal(payload, &q); err != nil {
		return nil, fmt.Errorf("bad discovery query: %w", err)
	}
	advs := d.GetLocalAdvertisements(q.Type, q.Attr, q.Value)
	if q.Limit > 0 && len(advs) > q.Limit {
		advs = advs[:q.Limit]
	}
	resp := discoveryResponseDoc{Advs: make([][]byte, 0, len(advs))}
	d.mu.Lock()
	for _, adv := range advs {
		// An entry flushed since the lookup is left out; one replaced
		// since is answered with its newer bytes.
		if e, ok := d.cache[adv.AdvID()]; ok {
			resp.Advs = append(resp.Advs, e.raw)
		}
	}
	d.mu.Unlock()
	return xml.Marshal(resp)
}
