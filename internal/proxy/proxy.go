// Package proxy implements Whisper's SWS-proxy (paper §3.2): the
// component behind a semantic Web service that locates a semantic
// b-peer group matching the service's WSDL-S annotations, binds to the
// group's elected coordinator, forwards requests over a pipe, and
// transparently re-binds (after a Bully election) when the coordinator
// fails.
package proxy

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"maps"
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
	disco   *p2p.DiscoveryClient
	shards  *p2p.ShardRouter
	pipes   *p2p.PipeService
	rdv     *p2p.RendezvousClient
	bindRes *p2p.Resolver
	tracker *qos.Tracker
	sel     *qos.Selector
	rtt     *metrics.RTTMonitor

	// reasoner is the live compiled ontology; SetReasoner swaps it (a
	// find under the new one is a new lookup: its version is in the key).
	reasoner atomic.Pointer[ontology.Reasoner]
	// Lookup memo counters: lookups answered from the memo or asked of
	// the plane, finds served memoised matches, candidate sets matched.
	lookupHits, lookupMisses, matchHits, matchMisses atomic.Uint64

	// health counts resilience events: breaker transitions and
	// rejections, backoff sleeps, call attempts.
	health *metrics.Counter

	mu sync.Mutex
	// groups holds what the proxy knows about each group it has invoked:
	// breakers, coordinator binding, replica set (replicas.go).
	groups map[p2p.ID]*groupState
	// memo holds the plane's answer to each lookup (see find).
	memo map[lookup]*answer
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
		groups:  make(map[p2p.ID]*groupState),
		memo:    make(map[lookup]*answer),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	p.reasoner.Store(cfg.Reasoner)
	p.peer = p2p.NewPeer(cfg.Name, cfg.IDGen.New(p2p.PeerIDKind), tr)
	p.peer.SetTracer(cfg.Tracer)
	if col := cfg.Tracer.Collector(); col != nil {
		p2p.ServeTraces(p.peer, col)
	}
	p.disco = p2p.NewDiscoveryClient(p.peer)
	p.shards = p2p.NewShardRouter(cfg.ShardAddrs)
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

// answerCache serves "key value" lines describing the lookup memo and
// the binding cache.
func (p *SWSProxy) answerCache(_ string, _ []byte) ([]byte, error) {
	ds, ms := p.DiscoveryStats(), p.MatchCacheStats()
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
	fmt.Fprintf(&b, "lookup.candidates %d\n", ds.Size)
	fmt.Fprintf(&b, "lookup.hits %d\n", ds.Hits)
	fmt.Fprintf(&b, "lookup.misses %d\n", ds.Misses)
	fmt.Fprintf(&b, "discovery.remote_queries %d\n", ds.RemoteQueries)
	fmt.Fprintf(&b, "discovery.remote_advs %d\n", ds.RemoteAdvs)
	fmt.Fprintf(&b, "discovery.remote_rejected %d\n", ds.RemoteRejected)
	fmt.Fprintf(&b, "match.entries %d\n", ms.Entries)
	fmt.Fprintf(&b, "match.hits %d\n", ms.Hits)
	fmt.Fprintf(&b, "match.misses %d\n", ms.Misses)
	fmt.Fprintf(&b, "bindings.coordinators %d\n", nCoordinators)
	fmt.Fprintf(&b, "bindings.replica_sets %d\n", nReplicaSets)
	return []byte(b.String()), nil
}

// QueryCache asks a proxy peer for its cache statistics — the lookup
// memo's candidates and hit/miss counters, the remote rounds behind
// them, its match counters, binding counts — over the binding protocol
// (the peerctl "cache" command). The client peer must not already carry
// a resolver on the binding protocol.
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
// advertisement cache — here the lookup memo, see find — is searched by
// the action attribute, then input/output semantics are checked. Results
// are sorted best-first by (degree, QoS-weighted score).
func (p *SWSProxy) FindPeerGroupAdv(ctx context.Context, sig ontology.Signature) ([]GroupMatch, error) {
	r := p.reasoner.Load()
	matches, err := p.find(ctx, lookup{attr: "action", value: sig.Action, reasoner: r.Version()}, sigKey(sig),
		func() []string { return r.MatchingConcepts(sig.Action, p.cfg.MinDegree) },
		func(candidates []*bpeer.SemanticAdvertisement) []GroupMatch { return p.match(r, sig, candidates) })
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, ErrNoMatch
	}
	p.rank(matches)
	return matches, nil
}

// lookup names one question put to the discovery plane: the attribute,
// the value asked about and, when the index keys are derived from it
// through the ontology, the reasoner version (a swap asks again).
type lookup struct {
	attr, value string
	reasoner    uint64
}

// answer is what the plane returned for one lookup: candidates in ID
// order, matches per sigKey (under SWSProxy.mu), the candidates' expiry.
type answer struct {
	candidates []*bpeer.SemanticAdvertisement
	matches    map[string][]GroupMatch
	until      time.Time
}

// matcher picks an answer's matches, in the order rank starts from.
type matcher func(candidates []*bpeer.SemanticAdvertisement) []GroupMatch

// find answers q for the signature key sig with match's pick among the
// candidates the plane answered q with: from the memo while that answer
// lives (memoHit), else asked afresh (ask). Never from another lookup's
// answer, so a find does not depend on what the proxy asked before.
func (p *SWSProxy) find(ctx context.Context, q lookup, sig string, keys func() []string, match matcher) ([]GroupMatch, error) {
	if matches, ok := p.memoHit(q, sig, match); ok {
		return matches, nil
	}
	return p.ask(ctx, q, sig, keys, match)
}

// memoHit returns a copy of the matches memoised for sig under the live
// answer to q, matching its candidates first if sig is new to it. It
// reports false — ask the plane — when q has no answer, the answer's
// lifetime has run out, or it matches nothing: an empty answer asks
// again.
//
//lint:hotpath
func (p *SWSProxy) memoHit(q lookup, sig string, match matcher) ([]GroupMatch, bool) {
	p.mu.Lock()
	a := p.memo[q]
	if a == nil || !time.Now().Before(a.until) {
		p.mu.Unlock()
		return nil, false
	}
	matches, matched := a.matches[sig]
	p.mu.Unlock()
	if matched {
		p.matchHits.Add(1)
	} else {
		p.matchMisses.Add(1)
		matches = match(a.candidates)
		p.mu.Lock()
		a.matches[sig] = matches
		p.mu.Unlock()
	}
	if len(matches) == 0 {
		return nil, false
	}
	p.lookupHits.Add(1)
	return slices.Clone(matches), true
}

// ask is the discovery ladder: the ring owners of q's keys (publishes
// land there first), then every index node — the owners step skipped
// when they already are the whole fleet (always, on a ring of one), the
// fleet step when the owners' candidates match. Every step sends all of
// the keys, for an action its subsumption closure, so an index node
// answers with candidates only. The last step's answer is memoised for
// q, with its matches for sig, for p2p.DefaultLifetime from the fetch.
func (p *SWSProxy) ask(ctx context.Context, q lookup, sig string, keys func() []string, match matcher) ([]GroupMatch, error) {
	p.lookupMisses.Add(1)
	ks := keys()
	a := &answer{until: time.Now().Add(p2p.DefaultLifetime)}
	span := trace.FromContext(ctx)
	span.SetAttr("keys", strconv.Itoa(len(ks)))
	fetched := 0
	var matches []GroupMatch
	fetch := func(targets []string) error {
		advs, err := p.disco.Fetch(ctx, targets, bpeer.SemanticAdvType, q.attr, ks)
		if err != nil {
			return fmt.Errorf("proxy: remote discovery: %w", err)
		}
		fetched += len(advs)
		span.SetAttr("candidates", strconv.Itoa(fetched))
		a.candidates = a.candidates[:0]
		for _, adv := range advs {
			if sem, ok := adv.(*bpeer.SemanticAdvertisement); ok {
				a.candidates = append(a.candidates, sem)
			}
		}
		slices.SortFunc(a.candidates, func(x, y *bpeer.SemanticAdvertisement) int { return cmp.Compare(x.GID, y.GID) })
		p.matchMisses.Add(1)
		matches = match(a.candidates)
		return nil
	}
	all := p.shards.All()
	if owners := p.ownersOf(q.attr, ks, len(all)); len(owners) < len(all) {
		if err := fetch(owners); err != nil {
			return nil, err
		}
	}
	if len(matches) == 0 {
		if err := fetch(all); err != nil {
			return nil, err
		}
	}
	a.matches = map[string][]GroupMatch{sig: matches}
	now := time.Now()
	p.mu.Lock()
	maps.DeleteFunc(p.memo, func(_ lookup, old *answer) bool { return !now.Before(old.until) })
	p.memo[q] = a
	p.mu.Unlock()
	return slices.Clone(matches), nil
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

// FindByName is the syntactic baseline the paper contrasts against
// (§3.1: plain WSDL "provides only syntactical information"): it
// matches advertisements purely on their advertised Name attribute,
// with no semantic checking at all. Experiment E5 uses it to quantify
// the precision/recall gap live through the proxy.
func (p *SWSProxy) FindByName(ctx context.Context, name string) ([]*bpeer.SemanticAdvertisement, error) {
	found, err := p.find(ctx, lookup{attr: "Name", value: name}, "", func() []string { return []string{name} },
		func(candidates []*bpeer.SemanticAdvertisement) []GroupMatch {
			all := make([]GroupMatch, len(candidates))
			for i, c := range candidates {
				all[i].Adv = c
			}
			return all
		})
	var advs []*bpeer.SemanticAdvertisement
	for _, m := range found {
		advs = append(advs, m.Adv)
	}
	return advs, err
}

// Reasoner returns the proxy's live compiled ontology.
func (p *SWSProxy) Reasoner() *ontology.Reasoner { return p.reasoner.Load() }

// SetReasoner swaps in a newly compiled ontology. The ontology version
// is part of every lookup, so the next find asks the plane for the
// action's closure under the new ontology.
func (p *SWSProxy) SetReasoner(r *ontology.Reasoner) {
	if r != nil {
		p.reasoner.Store(r)
	}
}

// MatchCacheStats counts the lookup memo's matching (peerctl cache):
// Entries is the signatures matched against live answers, Hits the finds
// served memoised matches, Misses the candidate sets matched.
type MatchCacheStats struct {
	Entries      int
	Hits, Misses uint64
}

// MatchCacheStats snapshots the lookup memo's match counters.
func (p *SWSProxy) MatchCacheStats() MatchCacheStats {
	_, signatures := p.memoSize()
	return MatchCacheStats{Entries: signatures, Hits: p.matchHits.Load(), Misses: p.matchMisses.Load()}
}

// DiscoveryStats snapshots the proxy's lookups: Size is the candidates
// live answers hold, Hits the lookups answered from the memo, Misses
// those asked of the plane; Remote* count the query rounds behind them.
func (p *SWSProxy) DiscoveryStats() p2p.DiscoveryStats {
	s := p.disco.Stats()
	s.Size, _ = p.memoSize()
	s.Hits, s.Misses = p.lookupHits.Load(), p.lookupMisses.Load()
	return s
}

// memoSize counts the candidates live answers hold and the signatures
// matched against them.
func (p *SWSProxy) memoSize() (candidates, signatures int) {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.memo {
		if now.Before(a.until) {
			candidates += len(a.candidates)
			signatures += len(a.matches)
		}
	}
	return candidates, signatures
}

// match runs the reasoner over an answer's candidates: those
// advertising the requested action first, then the rest, each in ID
// order — the paper's exact action lookup, then the semantic scan that
// finds synonyms and subsumed actions. An answer holds each group once,
// so each group matches at most once.
func (p *SWSProxy) match(r *ontology.Reasoner, sig ontology.Signature, candidates []*bpeer.SemanticAdvertisement) []GroupMatch {
	var out []GroupMatch
	for _, exact := range [2]bool{true, false} {
		for _, sem := range candidates {
			if (sem.Action == sig.Action) != exact {
				continue
			}
			if m := r.MatchSignature(sem.Signature(), sig); m.Degree.Satisfies(p.cfg.MinDegree) {
				out = append(out, GroupMatch{Adv: sem, Match: m})
			}
		}
	}
	return out
}

// sigKey canonicalises a signature: concept order within inputs and
// outputs does not affect matching, so sorted copies make equivalent
// signatures share one memo entry.
func sigKey(sig ontology.Signature) string {
	var b strings.Builder
	b.WriteString(sig.Action)
	joinSorted := func(sep byte, ss []string) {
		b.WriteByte(sep)
		if len(ss) > 1 {
			ss = append([]string(nil), ss...)
			sort.Strings(ss)
		}
		for i, s := range ss {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(s)
		}
	}
	joinSorted('\x00', sig.Inputs)
	joinSorted('\x01', sig.Outputs)
	return b.String()
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
