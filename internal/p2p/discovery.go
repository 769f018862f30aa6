package p2p

import (
	"context"
	"encoding/xml"
	"errors"
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
	// RemoteQueries counts query rounds this service sent to other
	// peers' caches; RemoteAdvs the advertisement documents their
	// answers carried; RemoteRejected the answers, and the documents
	// inside well-formed answers, that failed to decode.
	RemoteQueries, RemoteAdvs, RemoteRejected uint64
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
	entries, scan := d.candidatesLocked(advType, attr, value)
	out := make([]Advertisement, 0, len(entries))
	for id, e := range entries {
		if d.selectsLocked(id, e, now, scan, attr, value) {
			out = append(out, e.adv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].AdvID() < out[j].AdvID() })
	return out
}

// candidatesLocked returns the entries one (advType, attr, value) query
// selects from, and whether each still has to pass matchAttr (scan) or
// the set already is the answer. Callers hold d.mu.
func (d *DiscoveryService) candidatesLocked(advType, attr, value string) (entries map[ID]*cacheEntry, scan bool) {
	switch {
	case advType == "":
		// Untyped query: full scan (peerctl-style introspection).
		d.stats.Misses++
		return d.cache, true
	case attr == "":
		// Type-only query: the type set IS the result set.
		d.stats.Hits++
		return d.byType[advType], false
	case hasWildcard(value):
		// Wildcard value: scan the type's entries only.
		d.stats.Misses++
		return d.byType[advType], true
	default:
		// Exact query: straight index lookup.
		d.stats.Hits++
		return d.index[indexKey{advType: advType, attr: attr, value: value}], false
	}
}

// selectsLocked reports whether a candidate entry belongs in the
// answer, evicting it if its lifetime passed. Callers hold d.mu.
func (d *DiscoveryService) selectsLocked(id ID, e *cacheEntry, now time.Time, scan bool, attr, value string) bool {
	if e.expires.Before(now) {
		d.expireLocked(id, e)
		return false
	}
	return !scan || matchAttr(e.attrs, attr, value)
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

// discoveryQueryDoc is the query document. Values lists the attribute
// values asked for: none or "*" selects every advertisement carrying
// the attribute, one value may use the '*' wildcards of
// GetLocalAdvertisements, and several select the union of their
// matches — how a proxy asks for the subsumption closure of an action
// in one round.
type discoveryQueryDoc struct {
	XMLName xml.Name `xml:"DiscoveryQuery"`
	Type    string   `xml:"Type"`
	Attr    string   `xml:"Attr,omitempty"`
	Values  []string `xml:"Value,omitempty"`
	Limit   int      `xml:"Limit,omitempty"`
}

// ErrDiscoveryResponse marks an answer to a remote discovery query
// that could not be decoded.
var ErrDiscoveryResponse = errors.New("p2p: malformed discovery response")

// RemoteGetAdvertisements queries the target peers' caches and returns
// up to limit unique advertisements (0 = unlimited), waiting for
// responses until every target answered or ctx expires.
func (d *DiscoveryService) RemoteGetAdvertisements(
	ctx context.Context,
	targets []string,
	advType, attr, value string,
	limit int,
) ([]Advertisement, error) {
	q := discoveryQueryDoc{Type: advType, Attr: attr, Limit: limit}
	if value != "" {
		q.Values = []string{value}
	}
	var out []Advertisement
	err := d.remoteQuery(ctx, targets, q, func(adv Advertisement, _ []byte) bool {
		out = append(out, adv)
		return limit > 0 && len(out) >= limit
	})
	return out, err
}

// Fetch asks the targets for the advertisements of advType whose attr
// equals any of values and caches each for lifetime with the bytes it
// arrived in, like JXTA's discovery response handling. It reports how
// many documents it cached.
func (d *DiscoveryService) Fetch(ctx context.Context, targets []string, advType, attr string, values []string, lifetime time.Duration) (int, error) {
	n := 0
	q := discoveryQueryDoc{Type: advType, Attr: attr, Values: values}
	err := d.remoteQuery(ctx, targets, q, func(adv Advertisement, raw []byte) bool {
		d.ingest(adv, raw, lifetime)
		n++
		return false
	})
	return n, err
}

// remoteQuery sends q to every target and hands each advertisement
// answered (the first copy, when several targets answer the same ID),
// with its document as it arrived, to each until each returns true,
// every target answered or ctx ends. A target whose answer is an
// error or does not decode counts as failed: that is the query's error
// when no target answered validly and is ignored when another did. A
// document inside a valid answer that does not parse is skipped.
func (d *DiscoveryService) remoteQuery(ctx context.Context, targets []string, q discoveryQueryDoc, each func(adv Advertisement, raw []byte) (done bool)) error {
	if len(targets) == 0 {
		return nil
	}
	payload, err := xml.Marshal(q)
	if err != nil {
		return fmt.Errorf("discovery: marshal query: %w", err)
	}
	var (
		answered, advs, rejected uint64
		nodeErr                  error
		seen                     = make(map[ID]bool)
	)
	err = d.resolver.Propagate(ctx, targets, discoveryQueryHandler, payload, func(resp Response) bool {
		docs, err := decodeDiscoveryResponse(resp.Payload)
		if resp.Err != nil {
			err = resp.Err
		}
		if err != nil {
			rejected++
			if nodeErr == nil {
				nodeErr = fmt.Errorf("%s: %w", resp.From, err)
			}
			return false
		}
		answered++
		for _, raw := range docs {
			adv, err := ParseAdvertisement(raw)
			if err != nil {
				rejected++
				continue
			}
			advs++
			if seen[adv.AdvID()] {
				continue
			}
			seen[adv.AdvID()] = true
			if each(adv, raw) {
				return true
			}
		}
		return false
	})
	d.mu.Lock()
	d.stats.RemoteQueries++
	d.stats.RemoteAdvs += advs
	d.stats.RemoteRejected += rejected
	d.mu.Unlock()
	if err == nil && answered == 0 {
		err = nodeErr
	}
	// A query cut short after advertisements arrived keeps them.
	if err != nil && advs == 0 {
		return fmt.Errorf("discovery: remote query: %w", err)
	}
	return nil
}

// answerQuery serves a remote discovery query from the local cache:
// the union of what each asked value selects, in ID order, each
// advertisement as the bytes it was published with.
func (d *DiscoveryService) answerQuery(_ string, payload []byte) ([]byte, error) {
	var q discoveryQueryDoc
	if err := xml.Unmarshal(payload, &q); err != nil {
		return nil, fmt.Errorf("bad discovery query: %w", err)
	}
	values := q.Values
	if len(values) == 0 {
		values = []string{""}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	now := d.now()
	var hits []*cacheEntry
	for _, value := range values {
		entries, scan := d.candidatesLocked(q.Type, q.Attr, value)
		for id, e := range entries {
			if d.selectsLocked(id, e, now, scan, q.Attr, value) {
				hits = append(hits, e)
			}
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].adv.AdvID() < hits[j].adv.AdvID() })
	// Two values can select one advertisement (overlapping wildcards, a
	// value listed twice): the cache holds one entry per ID, so equal
	// neighbours are the same entry.
	docs := make([][]byte, 0, len(hits))
	for i, e := range hits {
		if q.Limit > 0 && len(docs) == q.Limit {
			break
		}
		if i == 0 || e != hits[i-1] {
			docs = append(docs, e.raw)
		}
	}
	return encodeDiscoveryResponse(docs), nil
}
