package p2p

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/gossip"
	"whisper/internal/simnet"
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
// The cache is a gossip.Store, the one record of every advertisement.
// The SRDI-style index is its view, written only by the store's OnApply
// observer: entries grouped by advertisement type, and an exact-match
// index keyed by (advType, attr, value) over every attribute an
// advertisement exposes. Exact queries are answered from the index
// without scanning; wildcard queries scan only the requested type's
// entries. A lookup sweeps the store (free before its next deadline)
// before it locks the index, so expiry has one path and the lock order
// is store → index.
type DiscoveryService struct {
	*DiscoveryClient
	store *gossip.Store
	pub   *gossip.Publisher

	mu     sync.Mutex
	cache  map[ID]*cacheEntry
	byType map[string]map[ID]*cacheEntry
	index  map[indexKey]map[ID]*cacheEntry
	stats  DiscoveryStats
}

type cacheEntry struct {
	adv Advertisement
	// raw is the store's payload, the advertisement's document as
	// published; remote queries are answered with these bytes.
	raw []byte
	// attrs caches adv.Attributes() from publish time: every
	// implementation builds a fresh map per call, so wildcard scans
	// (which probe one attribute per cached entry) would otherwise
	// allocate a map per entry per query.
	attrs map[string]string
}

// indexKey addresses one exact-match posting set of the secondary
// index.
type indexKey struct {
	advType string
	attr    string
	value   string
}

// DiscoveryStats snapshots the cache's index effectiveness counters
// (peerctl status reports them). Expiries and removals are the store's
// to count (gossip.StoreStats).
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
	// RemoteQueries counts query rounds this service sent to other
	// peers' caches; RemoteAdvs the advertisement documents their
	// answers carried; RemoteRejected the answers, and the documents
	// inside well-formed answers, that failed to decode.
	RemoteQueries, RemoteAdvs, RemoteRejected uint64
}

// discoveryQueryHandler is the discovery resolver handler name.
const discoveryQueryHandler = "discovery.query"

// NewDiscoveryService attaches a discovery cache timed by the wall
// clock to the peer and answers remote queries from it.
func NewDiscoveryService(peer *Peer) *DiscoveryService {
	return newDiscoveryService(peer, simnet.WallClock{})
}

// newDiscoveryService builds the service on a store timed by clock and
// installs the index as the store's observer.
func newDiscoveryService(peer *Peer, clock simnet.Clock) *DiscoveryService {
	d := &DiscoveryService{
		DiscoveryClient: NewDiscoveryClient(peer),
		store:           gossip.NewStore(clock, 0),
		pub:             gossip.NewPublisher(string(peer.ID()), clock),
		cache:           make(map[ID]*cacheEntry),
		byType:          make(map[string]map[ID]*cacheEntry),
		index:           make(map[indexKey]map[ID]*cacheEntry),
	}
	d.store.OnApply(d.project)
	d.resolver.RegisterHandler(discoveryQueryHandler, d.answerQuery)
	return d
}

// Publish stores the advertisement for the given lifetime
// (DefaultLifetime if zero) as a fresh version of its ID, which indexes
// it under every attribute it exposes.
func (d *DiscoveryService) Publish(adv Advertisement, lifetime time.Duration) error {
	raw, err := adv.MarshalAdv()
	if err != nil {
		return fmt.Errorf("discovery: marshal %s: %w", adv.AdvType(), err)
	}
	if lifetime <= 0 {
		lifetime = DefaultLifetime
	}
	d.store.Apply(d.pub.Entry(string(adv.AdvID()), raw, lifetime))
	return nil
}

// project is the store's OnApply observer and the index's one writer.
// It runs under the store's lock for every change of a key, so the
// index holds exactly the store's live entries whose payload parses to
// the advertisement the key names. A live entry that does not is the
// key's death, like a tombstone: the version it superseded is gone from
// the store, so it leaves the index too.
func (d *DiscoveryService) project(e gossip.Entry, live bool) {
	id := ID(e.Key)
	d.mu.Lock()
	cur := d.cache[id]
	d.mu.Unlock()
	next := cur // a lease refresh republishes the same document
	if !live {
		next = nil
	} else if cur == nil || !bytes.Equal(cur.raw, e.Payload) {
		next = nil
		if adv, err := ParseAdvertisement(e.Payload); err == nil && adv.AdvID() == id {
			next = &cacheEntry{adv: adv, raw: e.Payload, attrs: adv.Attributes()}
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur != nil && next == cur {
		cur.raw = e.Payload // the store's copy: the node keeps one
		return
	}
	if cur != nil {
		d.unindexLocked(id, cur)
	}
	if next != nil {
		d.indexLocked(id, next)
	}
}

// indexLocked inserts the entry into the cache, the type set and the
// exact-match index. Callers hold d.mu.
func (d *DiscoveryService) indexLocked(id ID, e *cacheEntry) {
	d.cache[id] = e
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
	d.store.SweepExpired()
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, scan := d.candidatesLocked(advType, attr, value)
	out := make([]Advertisement, 0, len(entries))
	for _, e := range entries {
		if !scan || matchAttr(e.attrs, attr, value) {
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

// Members returns gid's live members, highest rank first. It asks the
// owners of the member list, and the whole fleet when they fail or know
// of none — on a ring of one, one query either way. Member lookups are
// not counted in the client's advertisement-lookup stats.
func (c *DiscoveryClient) Members(ctx context.Context, ring *ShardRouter, gid ID) ([]*PeerAdvertisement, error) {
	owners := ring.MemberOwners(gid)
	advs, _, _, err := c.collect(ctx, owners, memberQuery(gid))
	if all := ring.All(); (err != nil || len(advs) == 0) && len(owners) < len(all) {
		advs, _, _, err = c.collect(ctx, all, memberQuery(gid))
	}
	if err != nil {
		return nil, fmt.Errorf("group members: %w", err)
	}
	members := make([]*PeerAdvertisement, 0, len(advs))
	for _, adv := range advs {
		if pa, ok := adv.(*PeerAdvertisement); ok && pa.GID == gid {
			members = append(members, pa)
		}
	}
	slices.SortFunc(members, func(a, b *PeerAdvertisement) int { return cmp.Compare(b.Rank, a.Rank) })
	return members, nil
}

// remoteQuery is collect, counted in the client's stats.
func (c *DiscoveryClient) remoteQuery(ctx context.Context, targets []string, q discoveryQueryDoc) ([]Advertisement, error) {
	if len(targets) == 0 {
		return nil, nil
	}
	out, advs, rejected, err := c.collect(ctx, targets, q)
	c.queries.Add(1)
	c.advs.Add(advs)
	c.rejected.Add(rejected)
	return out, err
}

// collect sends q to every target and returns the advertisements
// answered (the first copy, when several targets answer the same ID),
// up to q.Limit when it is positive, once every target answered or ctx
// ends, with the counts of documents answered and of answers and
// documents rejected. A target whose answer is an error or does not
// decode counts as failed: that is the query's error when no target
// answered validly. A document that does not parse is skipped.
func (c *DiscoveryClient) collect(ctx context.Context, targets []string, q discoveryQueryDoc) (out []Advertisement, advs, rejected uint64, _ error) {
	var (
		answered uint64
		nodeErr  error
		seen     = make(map[ID]bool)
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
	if err == nil && answered == 0 {
		err = nodeErr
	}
	// A query cut short after advertisements arrived keeps them.
	if err != nil && advs == 0 {
		return nil, advs, rejected, fmt.Errorf("discovery: remote query: %w", err)
	}
	return out, advs, rejected, nil
}

// answerQuery serves a remote discovery query from the local cache:
// the union of what each asked value selects, in ID order, each
// advertisement as the bytes it was published with.
func (d *DiscoveryService) answerQuery(_ string, payload []byte) ([]byte, error) {
	q, err := decodeDiscoveryQuery(payload)
	if err != nil {
		return nil, fmt.Errorf("bad discovery query: %w", err)
	}
	return encodeDocs(d.lookupDocs(q, "")), nil
}

// lookupDocs answers q from the local cache, leaving out the
// advertisement skip (a member publishing its membership is not told
// of itself).
func (d *DiscoveryService) lookupDocs(q discoveryQueryDoc, skip ID) [][]byte {
	values := q.Values
	if len(values) == 0 {
		values = []string{""}
	}
	d.store.SweepExpired()
	d.mu.Lock()
	defer d.mu.Unlock()
	var hits []*cacheEntry
	for _, value := range values {
		entries, scan := d.candidatesLocked(q.Type, q.Attr, value)
		for id, e := range entries {
			if id != skip && (!scan || matchAttr(e.attrs, q.Attr, value)) {
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
	return docs
}

// memberQuery selects gid's member list.
func memberQuery(gid ID) discoveryQueryDoc {
	return discoveryQueryDoc{Type: PeerAdvType, Attr: "GID", Values: []string{string(gid)}}
}

// groupOf returns the group the live membership stored under key names
// ("" when key holds none).
func (d *DiscoveryService) groupOf(key ID) ID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e := d.cache[key]; e != nil {
		if pa, ok := e.adv.(*PeerAdvertisement); ok {
			return pa.GID
		}
	}
	return ""
}
