// Package proxy implements Whisper's SWS-proxy (paper §3.2): the
// component behind a semantic Web service that locates a semantic
// b-peer group matching the service's WSDL-S annotations, binds to the
// group's elected coordinator, forwards requests over a pipe, and
// transparently re-binds (after a Bully election) when the coordinator
// fails.
package proxy

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/loadctl"
	"whisper/internal/metrics"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/replog"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// Errors returned by the proxy.
var (
	// ErrNoMatch is returned when no semantic peer group satisfies the
	// request's semantics at the configured threshold.
	ErrNoMatch = errors.New("proxy: no semantically matching peer group")
	// ErrNoCoordinator is returned when a matching group has no
	// reachable coordinator after all retries.
	ErrNoCoordinator = errors.New("proxy: no reachable coordinator")
	// ErrCircuitOpen is returned when a group's circuit breaker is open
	// (the group failed too many consecutive attempts and the cooldown
	// has not elapsed); the proxy sheds the call instead of probing.
	ErrCircuitOpen = errors.New("proxy: circuit open")
)

// Config assembles an SWS-proxy.
type Config struct {
	// Name names the proxy peer.
	Name string
	// RendezvousAddr is the rendezvous peer to discover through.
	RendezvousAddr string
	// ShardAddrs lists the index nodes of the discovery plane; empty
	// selects the ring of one, [RendezvousAddr]. Remote queries route to
	// the consistent-hash owners of the requested (advType, attr, value)
	// triple, falling back to scatter-gather over every node.
	ShardAddrs []string
	// ShardReplicas is how many shard owners each exact query consults;
	// zero selects p2p.DefaultShardReplicas.
	ShardReplicas int
	// Reasoner performs the semantic matching.
	Reasoner *ontology.Reasoner
	// MinDegree is the weakest acceptable signature match degree;
	// zero selects MatchSubsume.
	MinDegree ontology.MatchDegree
	// Selector ranks semantically acceptable groups by QoS; nil
	// selects a default selector backed by the proxy's own tracker.
	Selector *qos.Selector
	// Translator adapts response payloads between peer and service
	// data schemas; nil selects the identity translation.
	Translator Translator
	// IDGen mints IDs.
	IDGen *p2p.IDGen
	// BindTimeout bounds one coordinator lookup; zero selects 500ms.
	BindTimeout time.Duration
	// CallTimeout bounds one request round trip; zero selects 2s.
	CallTimeout time.Duration
	// RetryDelay is the base pause between re-binding attempts while an
	// election converges; zero selects 100ms. Successive attempts back
	// off exponentially (with jitter) from this base.
	RetryDelay time.Duration
	// RetryMaxDelay caps the exponential backoff; zero selects
	// 16×RetryDelay.
	RetryMaxDelay time.Duration
	// MaxAttempts bounds request attempts across re-bindings; zero
	// selects 8.
	MaxAttempts int
	// BreakerThreshold is the number of consecutive infrastructure
	// failures after which a group's circuit breaker opens; zero
	// selects 5, negative disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker fails fast before
	// admitting a half-open probe; zero selects 10×RetryDelay.
	BreakerCooldown time.Duration
	// Admission is the overload-protection pipeline (per-client rate
	// limiting, deadline-aware queueing, AIMD concurrency) applied in
	// front of the circuit breaker; nil disables admission control.
	Admission *loadctl.Controller
	// ReadObserver, when non-nil, observes every follower-served read:
	// the replica that answered, the read index the read was issued at
	// and the committed sequence it observed. The chaos staleness
	// invariant (no read observes a seq older than its read index)
	// hooks in here. Must be safe for concurrent calls.
	ReadObserver func(replica string, readIndex, readSeq uint64)
	// Seed drives the backoff jitter; zero selects 1 (deterministic).
	Seed int64
	// Tracer records per-request phase spans (discovery, bind,
	// election-wait, re-bind, call) into its collector; nil disables
	// tracing.
	Tracer *trace.Tracer
}

func (c *Config) applyDefaults() {
	if c.MinDegree == 0 {
		c.MinDegree = ontology.MatchSubsume
	}
	if c.IDGen == nil {
		c.IDGen = p2p.NewIDGen(0)
	}
	if c.BindTimeout <= 0 {
		c.BindTimeout = 500 * time.Millisecond
	}
	if c.CallTimeout <= 0 {
		c.CallTimeout = 2 * time.Second
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 100 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = 16 * c.RetryDelay
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 8
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * c.RetryDelay
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Translator == nil {
		c.Translator = IdentityTranslator{}
	}
	if len(c.ShardAddrs) == 0 {
		c.ShardAddrs = []string{c.RendezvousAddr}
	}
}

// SWSProxy forwards semantic Web service requests to b-peer groups.
type SWSProxy struct {
	cfg     Config
	peer    *p2p.Peer
	disco   *p2p.DiscoveryService
	shards  *p2p.ShardRouter
	pipes   *p2p.PipeService
	rdv     *p2p.RendezvousClient
	bindRes *p2p.Resolver
	tracker *qos.Tracker
	sel     *qos.Selector
	rtt     *metrics.RTTMonitor

	// reasoner is the live compiled ontology; SetReasoner swaps it
	// (invalidating the match cache via the version in its keys).
	reasoner atomic.Pointer[ontology.Reasoner]
	// matches memoises semantic match results per signature.
	matches *matchCache

	// health counts resilience events: breaker transitions and
	// rejections, backoff sleeps, call attempts.
	health *metrics.Counter

	mu sync.Mutex
	// groups holds what the proxy knows about each group it has invoked:
	// breakers, coordinator binding, replica set (replicas.go).
	groups map[p2p.ID]*groupState
	// asked maps each lookup the plane has answered to the earliest
	// expiry of the advertisements that answer put in the cache (see
	// discover).
	asked map[lookup]time.Time
	// rng drives backoff jitter (seeded, so retries are reproducible).
	rng *rand.Rand
	// rebinds counts coordinator re-bindings (observable in benches).
	rebinds int64
	// keySeq mints fallback idempotency keys for contexts that carry
	// none (callers below the SOAP stack, e.g. Service.Invoke).
	keySeq atomic.Uint64
}

// New assembles a proxy over the transport. Call Start to go live.
func New(tr simnet.Transport, cfg Config) (*SWSProxy, error) {
	if cfg.Reasoner == nil {
		return nil, fmt.Errorf("proxy: config requires a Reasoner")
	}
	if cfg.RendezvousAddr == "" {
		return nil, fmt.Errorf("proxy: config requires a RendezvousAddr")
	}
	cfg.applyDefaults()
	bpeer.EnsureAdvTypes()

	p := &SWSProxy{
		cfg:     cfg,
		tracker: qos.NewTracker(),
		rtt:     metrics.NewRTTMonitor(),
		health:  metrics.NewCounter(),
		matches: newMatchCache(),
		groups:  make(map[p2p.ID]*groupState),
		asked:   make(map[lookup]time.Time),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	p.reasoner.Store(cfg.Reasoner)
	p.peer = p2p.NewPeer(cfg.Name, cfg.IDGen.New(p2p.PeerIDKind), tr)
	p.peer.SetTracer(cfg.Tracer)
	if col := cfg.Tracer.Collector(); col != nil {
		p2p.ServeTraces(p.peer, col)
	}
	p.disco = p2p.NewDiscoveryService(p.peer)
	p.shards = p2p.NewShardRouter(cfg.ShardAddrs, cfg.ShardReplicas)
	p.pipes = p2p.NewPipeService(p.peer, cfg.IDGen)
	p.rdv = p2p.NewRendezvousClient(p.peer, cfg.RendezvousAddr)
	p.bindRes = p2p.NewResolverOn(p.peer, bpeer.ProtoBinding)
	p.bindRes.RegisterHandler(breakersHandler, p.answerBreakers)
	p.bindRes.RegisterHandler(cacheHandler, p.answerCache)
	p.bindRes.RegisterHandler(loadctlHandler, p.answerLoadctl)
	if cfg.Selector != nil {
		p.sel = cfg.Selector
	} else {
		p.sel = qos.NewSelector(p.tracker, qos.Weights{})
	}
	// Bound the RTT monitor's in-flight map: a request whose coordinator
	// crashed may never see a reply stamp, so stale stamps are swept
	// once they are far older than any live call could be.
	p.rtt.SetMaxAge(4 * cfg.CallTimeout)
	return p, nil
}

// Start brings the proxy peer online.
func (p *SWSProxy) Start() { p.peer.Start() }

// Close shuts the proxy down.
func (p *SWSProxy) Close() error { return p.peer.Close() }

// Addr returns the proxy's transport address.
func (p *SWSProxy) Addr() string { return p.peer.Addr() }

// RTT exposes the proxy's request round-trip-time monitor (the
// measurement surface of the paper's §5 RTT analysis).
func (p *SWSProxy) RTT() *metrics.RTTMonitor { return p.rtt }

// Rebinds reports how many times the proxy had to re-bind to a new
// coordinator.
func (p *SWSProxy) Rebinds() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.rebinds
}

// Tracker exposes the proxy's QoS observations.
func (p *SWSProxy) Tracker() *qos.Tracker { return p.tracker }

// Health exposes the proxy's resilience counters. The invocation
// pipeline emits: admission rejections ("loadctl.shed"); group-breaker
// transitions ("breaker.opened", "breaker.half_open", "breaker.closed")
// and fast-failed attempts ("breaker.rejected"); actual pipe calls
// ("calls.attempted") and backoff pauses ("backoff.sleeps"); and, for
// follower reads, calls drawn from the replica set ("reads.balanced"),
// reads answered ("reads.served") and answered below their read index
// ("reads.stale"), replicas passed over because their breaker would not
// admit ("read.replica_skipped") and per-replica breaker transitions
// ("read.breaker.opened", "read.breaker.half_open",
// "read.breaker.closed").
func (p *SWSProxy) Health() *metrics.Counter { return p.health }

// Admission exposes the proxy's overload-protection controller, or nil
// when admission control is disabled.
func (p *SWSProxy) Admission() *loadctl.Controller { return p.cfg.Admission }

// BreakerStates snapshots the circuit-breaker state per group.
func (p *SWSProxy) BreakerStates() map[p2p.ID]BreakerState {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[p2p.ID]BreakerState, len(p.groups))
	for gid, gs := range p.groups {
		if gs.br != nil {
			out[gid] = gs.br.State()
		}
	}
	return out
}

// queryProxy asks a proxy peer's introspection handler for its report.
func queryProxy(ctx context.Context, peer *p2p.Peer, proxyAddr, handler string) (string, error) {
	payload, err := p2p.NewResolverOn(peer, bpeer.ProtoBinding).Query(ctx, proxyAddr, handler, nil)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}

// breakersHandler is the resolver handler name under which the proxy
// answers circuit-breaker introspection queries (peerctl breakers).
const breakersHandler = "proxy.breakers"

// answerBreakers serves one line per group ("<gid> <state>") followed
// by one line per resilience counter ("# <label>=<value>").
func (p *SWSProxy) answerBreakers(_ string, _ []byte) ([]byte, error) {
	states := p.BreakerStates()
	gids := make([]string, 0, len(states))
	for gid := range states {
		gids = append(gids, string(gid))
	}
	sort.Strings(gids)
	var b strings.Builder
	for _, gid := range gids {
		fmt.Fprintf(&b, "%s %s\n", gid, states[p2p.ID(gid)])
	}
	if counters := p.health.String(); counters != "" {
		fmt.Fprintf(&b, "# %s\n", counters)
	}
	return []byte(b.String()), nil
}

// QueryBreakers asks a proxy peer for its circuit-breaker states and
// resilience counters (the peerctl "breakers" command). The client
// peer must not already carry a resolver on the binding protocol.
func QueryBreakers(ctx context.Context, peer *p2p.Peer, proxyAddr string) (string, error) {
	return queryProxy(ctx, peer, proxyAddr, breakersHandler)
}

// loadctlHandler is the resolver handler name under which the proxy
// answers overload-protection introspection queries (peerctl loadctl).
const loadctlHandler = "loadctl.status"

// answerLoadctl serves the admission pipeline's live status: current
// AIMD limit, inflight count, queue depth, per-stage shed counters and
// per-client token levels ("key value" lines).
func (p *SWSProxy) answerLoadctl(_ string, _ []byte) ([]byte, error) {
	adm := p.cfg.Admission
	if adm == nil {
		return []byte("enabled false\n"), nil
	}
	return []byte("enabled true\n" + adm.Snapshot().String()), nil
}

// QueryLoadctl asks a proxy peer for its overload-protection status
// (the peerctl "loadctl" command). The client peer must not already
// carry a resolver on the binding protocol.
func QueryLoadctl(ctx context.Context, peer *p2p.Peer, proxyAddr string) (string, error) {
	return queryProxy(ctx, peer, proxyAddr, loadctlHandler)
}

// cacheHandler is the resolver handler name under which the proxy
// answers cache introspection queries (peerctl cache).
const cacheHandler = "proxy.cache"

// answerCache serves "key value" lines describing the discovery
// index, the semantic match cache and the binding cache.
func (p *SWSProxy) answerCache(_ string, _ []byte) ([]byte, error) {
	ds := p.disco.Stats()
	ms := p.matches.stats()
	p.mu.Lock()
	var nCoordinators, nReplicaSets int
	for _, gs := range p.groups {
		if gs.coord != nil {
			nCoordinators++
		}
		if len(gs.replicas) > 0 {
			nReplicaSets++
		}
	}
	p.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "discovery.size %d\n", ds.Size)
	fmt.Fprintf(&b, "discovery.index_keys %d\n", ds.IndexKeys)
	fmt.Fprintf(&b, "discovery.hits %d\n", ds.Hits)
	fmt.Fprintf(&b, "discovery.misses %d\n", ds.Misses)
	fmt.Fprintf(&b, "discovery.expired %d\n", ds.Expired)
	fmt.Fprintf(&b, "discovery.flushed %d\n", ds.Flushed)
	fmt.Fprintf(&b, "discovery.sweeps %d\n", ds.Sweeps)
	fmt.Fprintf(&b, "discovery.remote_queries %d\n", ds.RemoteQueries)
	fmt.Fprintf(&b, "discovery.remote_advs %d\n", ds.RemoteAdvs)
	fmt.Fprintf(&b, "discovery.remote_rejected %d\n", ds.RemoteRejected)
	fmt.Fprintf(&b, "match.entries %d\n", ms.Entries)
	fmt.Fprintf(&b, "match.hits %d\n", ms.Hits)
	fmt.Fprintf(&b, "match.misses %d\n", ms.Misses)
	fmt.Fprintf(&b, "match.invalidations %d\n", ms.Invalidations)
	fmt.Fprintf(&b, "match.partition_evictions %d\n", ms.PartitionEvictions)
	fmt.Fprintf(&b, "bindings.coordinators %d\n", nCoordinators)
	fmt.Fprintf(&b, "bindings.replica_sets %d\n", nReplicaSets)
	return []byte(b.String()), nil
}

// QueryCache asks a proxy peer for its cache statistics — discovery
// index size and hit/miss/eviction counters, match-cache counters,
// binding counts — over the binding protocol (the peerctl "cache"
// command). The client peer must not already carry a resolver on the
// binding protocol.
func QueryCache(ctx context.Context, peer *p2p.Peer, proxyAddr string) (string, error) {
	return queryProxy(ctx, peer, proxyAddr, cacheHandler)
}

// GroupMatch pairs a discovered semantic advertisement with its match
// result against the requested signature.
type GroupMatch struct {
	Adv   *bpeer.SemanticAdvertisement
	Match ontology.SignatureMatch
}

// FindPeerGroupAdv locates semantic peer-group advertisements matching
// the signature, mirroring the paper's findPeerGroupAdv pseudocode: the
// advertisement cache is searched by the action attribute, then
// input/output semantics are checked; a remote discovery against the
// index fills the cache first unless it already holds the plane's
// answer for this action (see discover). Results are sorted best-first
// by (degree, QoS-weighted score).
func (p *SWSProxy) FindPeerGroupAdv(ctx context.Context, sig ontology.Signature) ([]GroupMatch, error) {
	r := p.reasoner.Load()
	var matches []GroupMatch
	err := p.discover(ctx, lookup{attr: "action", value: sig.Action, reasoner: r.Version()},
		func() []string { return r.MatchingConcepts(sig.Action, p.cfg.MinDegree) },
		func() bool {
			matches = p.matchLocal(r, sig)
			return len(matches) > 0
		})
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, ErrNoMatch
	}
	p.rank(matches)
	return matches, nil
}

// lookup names one question put to the discovery ladder: the attribute,
// the value the caller asked about and, when the index keys are derived
// from that value through the ontology, the reasoner version they were
// derived under (so a swapped ontology asks again).
type lookup struct {
	attr, value string
	reasoner    uint64
}

// discover is the discovery ladder: the local advertisement cache,
// then the ring owners of the keys (the nodes publishes land on first,
// so they are the freshest authority for them), then every index node.
// When the owners already are the whole fleet — always, on a ring of
// one — the owners step would ask the same nodes twice and is skipped.
//
// keys lists the exact values of q.attr whose advertisements can answer
// q — for an action its subsumption closure — and every remote step
// sends all of them, so an index node answers with candidates only and
// the cache holds what this proxy asked for, never the catalogue. That
// changes what a local hit means: the cache answers q only if the plane
// has been asked q's keys and the advertisements that fetched are still
// alive (p.asked); a hit left behind by another question would make the
// answer depend on the proxy's history. collect searches the local
// cache and reports whether it found anything; an empty result always
// asks again.
func (p *SWSProxy) discover(ctx context.Context, q lookup, keys func() []string, collect func() bool) error {
	if p.hasAsked(q) && collect() {
		return nil
	}
	ks := keys()
	// The advertisements fetched below live at least this long.
	until := time.Now().Add(p2p.DefaultLifetime)
	span := trace.FromContext(ctx)
	span.SetAttr("keys", strconv.Itoa(len(ks)))
	candidates := 0
	fetch := func(targets []string) error {
		n, err := p.disco.Fetch(ctx, targets, bpeer.SemanticAdvType, q.attr, ks, p2p.DefaultLifetime)
		if err != nil {
			return fmt.Errorf("proxy: remote discovery: %w", err)
		}
		candidates += n
		span.SetAttr("candidates", strconv.Itoa(candidates))
		return nil
	}
	all := p.shards.All()
	if owners := p.ownersOf(q.attr, ks, len(all)); len(owners) < len(all) {
		if err := fetch(owners); err != nil {
			return err
		}
		if collect() {
			p.setAsked(q, until)
			return nil
		}
	}
	if err := fetch(all); err != nil {
		return err
	}
	p.setAsked(q, until)
	collect()
	return nil
}

// ownersOf returns the ring owners of the keys' (attr, key) triples,
// each node once; it stops at fleet nodes, when the union can grow no
// further.
func (p *SWSProxy) ownersOf(attr string, keys []string, fleet int) []string {
	var owners, replicas []string
	for _, k := range keys {
		replicas = p.shards.AppendOwners(replicas[:0], bpeer.SemanticAdvType, attr, k)
		for _, node := range replicas {
			if !slices.Contains(owners, node) {
				owners = append(owners, node)
			}
		}
		if len(owners) >= fleet {
			break
		}
	}
	return owners
}

// hasAsked reports whether the plane's answer to q is still in the
// cache: it was fetched and none of it has reached its lifetime.
func (p *SWSProxy) hasAsked(q lookup) bool {
	p.mu.Lock()
	until, ok := p.asked[q]
	p.mu.Unlock()
	return ok && time.Now().Before(until)
}

// setAsked records that the plane answered q with advertisements that
// live until at least until, and forgets the answers that have run out.
func (p *SWSProxy) setAsked(q lookup, until time.Time) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for old, t := range p.asked {
		if !now.Before(t) {
			delete(p.asked, old)
		}
	}
	p.asked[q] = until
}

// FindByName is the syntactic baseline the paper contrasts against
// (§3.1: plain WSDL "provides only syntactical information"): it
// matches advertisements purely on their advertised Name attribute,
// with no semantic checking at all. Experiment E5 uses it to quantify
// the precision/recall gap live through the proxy.
func (p *SWSProxy) FindByName(ctx context.Context, name string) ([]*bpeer.SemanticAdvertisement, error) {
	var found []*bpeer.SemanticAdvertisement
	err := p.discover(ctx, lookup{attr: "Name", value: name},
		func() []string { return []string{name} },
		func() bool {
			found = found[:0]
			for _, a := range p.disco.GetLocalAdvertisements(bpeer.SemanticAdvType, "Name", name) {
				if sem, ok := a.(*bpeer.SemanticAdvertisement); ok {
					found = append(found, sem)
				}
			}
			return len(found) > 0
		})
	if err != nil {
		return nil, err
	}
	return found, nil
}

// Reasoner returns the proxy's live compiled ontology.
func (p *SWSProxy) Reasoner() *ontology.Reasoner { return p.reasoner.Load() }

// SetReasoner swaps in a newly compiled ontology. Match results
// memoised against the old ontology version stop validating on the
// next lookup, and the next find asks the plane for the action's
// closure under the new ontology, so no stale semantic decision
// survives the swap.
func (p *SWSProxy) SetReasoner(r *ontology.Reasoner) {
	if r != nil {
		p.reasoner.Store(r)
	}
}

// MatchCacheStats snapshots the semantic match cache counters.
func (p *SWSProxy) MatchCacheStats() MatchCacheStats { return p.matches.stats() }

// DiscoveryStats snapshots the proxy's local discovery cache/index.
func (p *SWSProxy) DiscoveryStats() p2p.DiscoveryStats { return p.disco.Stats() }

// matchLocal resolves the signature against the local advertisement
// cache, memoising through the match cache: a hit skips the reasoner
// entirely. Memoised results validate against the discovery cache's
// membership generation and the ontology version (whole-cache flush),
// plus the expiry-partition generations of the advertisements they
// contain (per-result eviction) — so published/flushed/expired
// advertisements and ontology swaps invalidate memoised results
// before they can be served, while unrelated expiry churn leaves them
// alone.
func (p *SWSProxy) matchLocal(r *ontology.Reasoner, sig ontology.Signature) []GroupMatch {
	gen := p.disco.MemberGen()
	key := sigKey(sig)
	if cached, ok := p.matches.get(key, gen, r.Version(), p.disco.PartitionGen); ok {
		return cached
	}
	out := p.matchUncached(r, sig)
	p.matches.put(key, gen, r.Version(), out, matchPartition, p.disco.PartitionGen)
	return out
}

// matchPartition maps one matched advertisement onto its discovery
// expiry partition.
func matchPartition(m GroupMatch) uint32 {
	return p2p.ActionPartition(m.Adv.AdvType(), m.Adv.Attributes()["action"])
}

// matchUncached scans the local cache: the fast path queries the
// "action" attribute exactly (the paper's pseudocode, now served from
// the discovery index); the slow path runs the reasoner over every
// semantic advertisement so synonym actions (equivalent concepts with
// different URIs) still match.
func (p *SWSProxy) matchUncached(r *ontology.Reasoner, sig ontology.Signature) []GroupMatch {
	seen := make(map[p2p.ID]bool)
	var out []GroupMatch
	consider := func(advs []p2p.Advertisement) {
		for _, a := range advs {
			sem, ok := a.(*bpeer.SemanticAdvertisement)
			if !ok || seen[sem.GID] {
				continue
			}
			m := r.MatchSignature(sem.Signature(), sig)
			if m.Degree.Satisfies(p.cfg.MinDegree) {
				seen[sem.GID] = true
				out = append(out, GroupMatch{Adv: sem, Match: m})
			}
		}
	}
	consider(p.disco.GetLocalAdvertisements(bpeer.SemanticAdvType, "action", sig.Action))
	consider(p.disco.GetLocalAdvertisements(bpeer.SemanticAdvType, "", ""))
	return out
}

// rank orders matches best-first by degree then QoS-weighted score.
func (p *SWSProxy) rank(matches []GroupMatch) {
	score := func(g GroupMatch) float64 {
		return p.sel.Score(qos.Candidate{
			Peer:          string(g.Adv.GID),
			Profile:       g.Adv.QoS,
			SemanticScore: g.Match.Score,
		})
	}
	sort.SliceStable(matches, func(i, j int) bool {
		if matches[i].Match.Degree != matches[j].Match.Degree {
			return matches[i].Match.Degree < matches[j].Match.Degree
		}
		return score(matches[i]) > score(matches[j])
	})
}

// Invoke performs one semantic service request: discover → bind →
// call, with transparent re-binding on coordinator failure. It returns
// the translated response payload.
//
// With a Tracer configured, the invocation records a span tree whose
// phases tile the request's wall clock: "discovery" (semantic match),
// "bind"/"re-bind" (coordinator lookup), "call" (pipe round trip,
// continuing into the b-peer's own spans) and "election-wait" (the
// pauses spent waiting for a Bully election to converge) — the
// per-request decomposition of the paper's §5 worst-case-RTT anatomy.
func (p *SWSProxy) Invoke(ctx context.Context, sig ontology.Signature, op string, payload []byte) ([]byte, error) {
	// The idempotency key is fixed once per logical call, BEFORE the
	// attempt loop: every retry, re-bind and half-open probe of this
	// invocation reuses it, so a journaling group executes the
	// operation at most once no matter how the call is re-driven. The
	// SOAP stack mints it client-side (the MessageID header); calls
	// entering below SOAP get a proxy-local key.
	key := replog.KeyFromContext(ctx)
	if key == "" {
		key = p.peer.Addr() + "/k" + strconv.FormatUint(p.keySeq.Add(1), 10)
		ctx = replog.ContextWithKey(ctx, key)
	}
	ctx, span := p.cfg.Tracer.StartSpan(ctx, "proxy.invoke")
	span.SetAttr("proxy", p.cfg.Name)
	span.SetAttr("op", op)
	p.rtt.StampRequest(key)
	out, err := p.invokeTraced(ctx, sig, op, payload)
	if err == nil {
		p.rtt.StampReply(key)
	} else {
		p.rtt.Abandon(key)
	}
	span.EndWith(err)
	return out, err
}

func (p *SWSProxy) invokeTraced(ctx context.Context, sig ontology.Signature, op string, payload []byte) ([]byte, error) {
	dctx, dspan := p.cfg.Tracer.StartSpan(ctx, "discovery")
	dspan.SetAttr("action", string(sig.Action))
	matches, err := p.FindPeerGroupAdv(dctx, sig)
	dspan.SetAttr("matches", strconv.Itoa(len(matches)))
	dspan.EndWith(err)
	if err != nil {
		return nil, err
	}
	var lastErr error
	for _, gm := range matches {
		out, err := p.InvokeGroup(ctx, gm.Adv, op, payload)
		if err == nil {
			return p.cfg.Translator.TranslateResponse(sig, gm.Adv.Signature(), out)
		}
		lastErr = err
		// Application-level errors (the handler rejected the request)
		// are authoritative; infrastructure errors fall through to the
		// next matching group.
		var appErr *ApplicationError
		if errors.As(err, &appErr) {
			return nil, err
		}
		// A shed is a deliberate local decision, not a group failure:
		// driving the same request into the next matching group would
		// re-run the admission pipeline it was just rejected by and
		// feed the very overload it protects from.
		if errors.Is(err, loadctl.ErrRejected) {
			return nil, err
		}
	}
	return nil, lastErr
}

// ApplicationError wraps a service-level failure reported by a b-peer
// handler (as opposed to an infrastructure failure the proxy can mask
// with redundancy).
type ApplicationError struct {
	Group p2p.ID
	Msg   string
}

// Error implements error.
func (e *ApplicationError) Error() string {
	return fmt.Sprintf("proxy: application error from group %s: %s", e.Group, e.Msg)
}
