package p2p

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/wire"
)

// DiscoveryService implements JXTA's discovery protocol on an index
// node: a local advertisement cache with expirations whose entries
// answer remote queries (remote publication is the discovery plane's
// job, see NewIndexNode). Queries select by advertisement type plus an
// optional attribute/value predicate, where the value may use a leading
// or trailing '*' wildcard — exactly the getLocalAdvertisements(type,
// attr, value) surface the paper's SWS-proxy pseudocode is written
// against.
//
// The cache keeps two secondary structures (the SRDI-style index):
// entries grouped by advertisement type, and an exact-match index keyed
// by (advType, attr, value) over every attribute an advertisement
// exposes. Exact queries are answered from the index without scanning;
// wildcard queries scan only the requested type's entries. An expired
// entry is evicted the moment a lookup touches it, so the index never
// serves a stale advertisement; on an index node the gossip store's
// sweep flushes it even when no lookup does (GossipService.mirror).
type DiscoveryService struct {
	*DiscoveryClient

	mu     sync.Mutex
	cache  map[ID]*cacheEntry
	byType map[string]map[ID]*cacheEntry
	index  map[indexKey]map[ID]*cacheEntry
	stats  DiscoveryStats
	now    func() time.Time
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
// (peerctl status reports them).
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
	// RemoteQueries counts query rounds this service sent to other
	// peers' caches; RemoteAdvs the advertisement documents their
	// answers carried; RemoteRejected the answers, and the documents
	// inside well-formed answers, that failed to decode.
	RemoteQueries, RemoteAdvs, RemoteRejected uint64
}

// discoveryQueryHandler is the discovery resolver handler name.
const discoveryQueryHandler = "discovery.query"

// NewDiscoveryService attaches a discovery cache to the peer and
// answers remote queries from it.
func NewDiscoveryService(peer *Peer) *DiscoveryService {
	d := &DiscoveryService{
		DiscoveryClient: NewDiscoveryClient(peer),
		cache:           make(map[ID]*cacheEntry),
		byType:          make(map[string]map[ID]*cacheEntry),
		index:           make(map[indexKey]map[ID]*cacheEntry),
		now:             time.Now,
	}
	d.resolver.RegisterHandler(discoveryQueryHandler, d.answerQuery)
	return d
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
// exact-match index. Callers hold d.mu.
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

// Flush removes the advertisement with the given ID from the cache and
// the index.
func (d *DiscoveryService) Flush(id ID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.cache[id]; ok {
		d.unindexLocked(id, e)
		d.stats.Flushed++
	}
}

// Stats snapshots the cache counters and the remote-query counters.
func (d *DiscoveryService) Stats() DiscoveryStats {
	remote := d.DiscoveryClient.Stats()
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.Size, s.IndexKeys = len(d.cache), len(d.index)
	s.RemoteQueries, s.RemoteAdvs, s.RemoteRejected = remote.RemoteQueries, remote.RemoteAdvs, remote.RemoteRejected
	return s
}

// GetLocalAdvertisements returns live cached advertisements of the
// given type matching the attribute predicate. Empty attr matches
// everything of the type. Results are sorted by advertisement ID for
// determinism.
//
// Exact attribute queries are answered from the (advType, attr, value)
// index in O(results). Wildcard values scan only the type's entries; an
// empty advType scans the whole cache (introspection tooling only).
func (d *DiscoveryService) GetLocalAdvertisements(advType, attr, value string) []Advertisement { //lint:hotpath
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
		d.unindexLocked(id, e)
		d.stats.Expired++
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
func matchAttr(attrs map[string]string, attr, value string) bool { //lint:hotpath
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

// DiscoveryClient asks other peers' discovery caches — the index nodes
// — and keeps no cache of its own: what a query returns is the
// caller's. An SWS-proxy holds one; every DiscoveryService embeds one.
type DiscoveryClient struct {
	resolver *Resolver

	queries, advs, rejected atomic.Uint64
}

// NewDiscoveryClient attaches a discovery client to the peer. It claims
// the ProtoDiscovery protocol tag so discovery traffic is accounted
// separately from other resolver traffic; a peer carries one client or
// one DiscoveryService, not both.
func NewDiscoveryClient(peer *Peer) *DiscoveryClient {
	EnsureBuiltinAdvTypes()
	return &DiscoveryClient{resolver: NewResolverOn(peer, ProtoDiscovery)}
}

// Stats snapshots the remote-query counters; only the Remote* fields
// are set.
func (c *DiscoveryClient) Stats() DiscoveryStats {
	return DiscoveryStats{RemoteQueries: c.queries.Load(), RemoteAdvs: c.advs.Load(), RemoteRejected: c.rejected.Load()}
}

// discoveryQueryDoc is the query document. Values lists the attribute
// values asked for: none or "*" selects every advertisement carrying
// the attribute, one value may use the '*' wildcards of
// GetLocalAdvertisements, and several select the union of their
// matches — how a proxy asks for the subsumption closure of an action
// in one round.
type discoveryQueryDoc struct {
	Type   string
	Attr   string
	Values []string
	Limit  int
}

// encode writes the query (layout: DESIGN.md §8): type, attribute, the
// value count and values, then the limit as a zigzag varint. A limit
// of zero or below asks for every match, as it does locally.
func (q *discoveryQueryDoc) encode() []byte {
	size := len(q.Type) + len(q.Attr) + 4*binary.MaxVarintLen64
	for _, v := range q.Values {
		size += binary.MaxVarintLen64 + len(v)
	}
	out := wire.AppendString(wire.AppendString(make([]byte, 0, size), q.Type), q.Attr)
	out = wire.AppendUvarint(out, uint64(len(q.Values)))
	for _, v := range q.Values {
		out = wire.AppendString(out, v)
	}
	return wire.AppendVarint(out, int64(q.Limit))
}

// decodeDiscoveryQuery reads a query written by encode.
func decodeDiscoveryQuery(data []byte) (discoveryQueryDoc, error) {
	r := wire.NewReader(data)
	q := discoveryQueryDoc{Type: r.Str(), Attr: r.Str()}
	if n := r.Count(1); n > 0 {
		q.Values = make([]string, n)
		for i := range q.Values {
			q.Values[i] = r.Str()
		}
	}
	q.Limit = int(r.Varint())
	return q, r.Done()
}

// ErrDiscoveryResponse marks an answer to a remote discovery query
// that could not be decoded.
var ErrDiscoveryResponse = errors.New("p2p: malformed discovery response")

// RemoteGetAdvertisements queries the target peers' caches and returns
// up to limit unique advertisements (0 = unlimited), waiting for
// responses until every target answered or ctx expires.
func (c *DiscoveryClient) RemoteGetAdvertisements(
	ctx context.Context,
	targets []string,
	advType, attr, value string,
	limit int,
) ([]Advertisement, error) {
	q := discoveryQueryDoc{Type: advType, Attr: attr, Limit: limit}
	if value != "" {
		q.Values = []string{value}
	}
	return c.remoteQuery(ctx, targets, q)
}

// Fetch asks the targets for the advertisements of advType whose attr
// equals any of values and returns them, each ID once, in the order
// they arrived.
func (c *DiscoveryClient) Fetch(ctx context.Context, targets []string, advType, attr string, values []string) ([]Advertisement, error) {
	return c.remoteQuery(ctx, targets, discoveryQueryDoc{Type: advType, Attr: attr, Values: values})
}

// remoteQuery sends q to every target and returns the advertisements
// answered (the first copy, when several targets answer the same ID),
// up to q.Limit when it is positive, once every target answered or ctx
// ends. A target whose answer is an error or does not decode counts as
// failed: that is the query's error when no target answered validly and
// is ignored when another did. A document inside a valid answer that
// does not parse is skipped.
func (c *DiscoveryClient) remoteQuery(ctx context.Context, targets []string, q discoveryQueryDoc) ([]Advertisement, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	var (
		out                      []Advertisement
		answered, advs, rejected uint64
		nodeErr                  error
		seen                     = make(map[ID]bool)
	)
	err := c.resolver.Propagate(ctx, targets, discoveryQueryHandler, q.encode(), func(resp Response) bool {
		docs, err := decodeDocs(resp.Payload)
		if err != nil {
			err = fmt.Errorf("%w: %w", ErrDiscoveryResponse, err)
		}
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
			out = append(out, adv)
			if q.Limit > 0 && len(out) >= q.Limit {
				return true
			}
		}
		return false
	})
	c.queries.Add(1)
	c.advs.Add(advs)
	c.rejected.Add(rejected)
	if err == nil && answered == 0 {
		err = nodeErr
	}
	// A query cut short after advertisements arrived keeps them.
	if err != nil && advs == 0 {
		return nil, fmt.Errorf("discovery: remote query: %w", err)
	}
	return out, nil
}

// answerQuery serves a remote discovery query from the local cache:
// the union of what each asked value selects, in ID order, each
// advertisement as the bytes it was published with.
func (d *DiscoveryService) answerQuery(_ string, payload []byte) ([]byte, error) {
	q, err := decodeDiscoveryQuery(payload)
	if err != nil {
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
	return encodeDocs(docs), nil
}
