package proxy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/trace"
)

func TestSigKeyCanonical(t *testing.T) {
	a := ontology.Signature{Action: "Act", Inputs: []string{"A", "B"}, Outputs: []string{"X", "Y"}}
	b := ontology.Signature{Action: "Act", Inputs: []string{"B", "A"}, Outputs: []string{"Y", "X"}}
	if sigKey(a) != sigKey(b) {
		t.Error("concept order changed the cache key")
	}
	c := ontology.Signature{Action: "Other", Inputs: []string{"A", "B"}, Outputs: []string{"X", "Y"}}
	if sigKey(a) == sigKey(c) {
		t.Error("different actions share a cache key")
	}
	// Inputs must not bleed into outputs.
	d := ontology.Signature{Action: "Act", Inputs: []string{"A", "B", "X", "Y"}}
	if sigKey(a) == sigKey(d) {
		t.Error("inputs and outputs are not separated in the key")
	}
}

// Stubs for tests that do not care about expiry partitions.
func zeroPartGen(uint32) uint64    { return 0 }
func zeroPartOf(GroupMatch) uint32 { return 0 }

func TestMatchCacheGenAndVersionInvalidation(t *testing.T) {
	c := newMatchCache()
	m := []GroupMatch{{Adv: &bpeer.SemanticAdvertisement{GID: "urn:g1"}}}

	if _, ok := c.get("k", 1, 1, zeroPartGen); ok {
		t.Fatal("hit on empty cache")
	}
	c.put("k", 1, 1, m, zeroPartOf, zeroPartGen)
	if got, ok := c.get("k", 1, 1, zeroPartGen); !ok || len(got) != 1 {
		t.Fatal("expected hit at the same (gen, version)")
	}
	// Advertisement set moved: everything memoised must go.
	if _, ok := c.get("k", 2, 1, zeroPartGen); ok {
		t.Error("stale hit after generation bump")
	}
	// A result computed against the old world must not be cached.
	c.put("k", 1, 1, m, zeroPartOf, zeroPartGen)
	if _, ok := c.get("k", 2, 1, zeroPartGen); ok {
		t.Error("stale put survived into the new generation")
	}
	// Ontology change invalidates too.
	c.put("k", 2, 1, m, zeroPartOf, zeroPartGen)
	if _, ok := c.get("k", 2, 2, zeroPartGen); ok {
		t.Error("stale hit after ontology version change")
	}
	s := c.stats()
	if s.Invalidations < 2 {
		t.Errorf("invalidations = %d, want >= 2", s.Invalidations)
	}
	if s.Hits != 1 {
		t.Errorf("hits = %d, want 1", s.Hits)
	}
}

func TestMatchCacheHitsAreCopies(t *testing.T) {
	c := newMatchCache()
	c.get("k", 1, 1, zeroPartGen) // validate the cache at (1, 1) so put stores
	c.put("k", 1, 1, []GroupMatch{
		{Adv: &bpeer.SemanticAdvertisement{GID: "urn:a"}},
		{Adv: &bpeer.SemanticAdvertisement{GID: "urn:b"}},
	}, zeroPartOf, zeroPartGen)
	got1, _ := c.get("k", 1, 1, zeroPartGen)
	got1[0], got1[1] = got1[1], got1[0] // rank sorts in place
	got2, _ := c.get("k", 1, 1, zeroPartGen)
	if got2[0].Adv.GID != "urn:a" {
		t.Error("sorting a cache hit mutated the cached slice")
	}
}

// TestMatchCachePartitionEviction: expiry churn in a partition a result
// depends on evicts just that result; churn in unrelated partitions
// leaves the cache intact, and misses (which depend on no partition)
// survive any expiry.
func TestMatchCachePartitionEviction(t *testing.T) {
	c := newMatchCache()
	gens := map[uint32]uint64{}
	partGen := func(p uint32) uint64 { return gens[p] }
	partOf := func(m GroupMatch) uint32 {
		if m.Adv.GID == "urn:a" {
			return 3
		}
		return 7
	}

	c.get("a", 1, 1, partGen) // validate
	c.put("a", 1, 1, []GroupMatch{{Adv: &bpeer.SemanticAdvertisement{GID: "urn:a"}}}, partOf, partGen)
	c.put("b", 1, 1, []GroupMatch{{Adv: &bpeer.SemanticAdvertisement{GID: "urn:b"}}}, partOf, partGen)
	c.put("empty", 1, 1, nil, partOf, partGen)

	// Unrelated partition moves: everything still hits.
	gens[11]++
	for _, k := range []string{"a", "b", "empty"} {
		if _, ok := c.get(k, 1, 1, partGen); !ok {
			t.Errorf("%q evicted by unrelated partition churn", k)
		}
	}

	// Partition 3 moves: only "a" (whose match hashes there) goes.
	gens[3]++
	if _, ok := c.get("a", 1, 1, partGen); ok {
		t.Error("result survived expiry in its own partition")
	}
	if _, ok := c.get("b", 1, 1, partGen); !ok {
		t.Error("result in partition 7 evicted by partition 3 churn")
	}
	if _, ok := c.get("empty", 1, 1, partGen); !ok {
		t.Error("empty result evicted by expiry (only publishes can turn a miss into a hit)")
	}
	s := c.stats()
	if s.PartitionEvictions != 1 {
		t.Errorf("partition evictions = %d, want 1", s.PartitionEvictions)
	}
	if s.Invalidations != 0 {
		t.Errorf("whole-cache invalidations = %d, want 0", s.Invalidations)
	}
}

// TestProxyMatchCacheServesRepeatsAndInvalidates drives the cache
// through the real proxy: the second discovery is a hit, a newly
// published advertisement invalidates, and the fresh group appears in
// results (no stale negative).
func TestProxyMatchCacheServesRepeatsAndInvalidates(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := p.FindPeerGroupAdv(ctx, studentSig()); err != nil {
			t.Fatalf("find %d: %v", i, err)
		}
	}
	s := p.MatchCacheStats()
	if s.Hits == 0 {
		t.Errorf("no match-cache hits after repeated discovery: %+v", s)
	}

	// A new advertisement lands in the local cache: the memoised
	// result must not mask it.
	_ = p.disco.Publish(bpeer.NewSemanticAdvertisement(
		"urn:whisper:fresh", "fresh", studentSig(), qos.Profile{}), time.Hour)
	matches, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil {
		t.Fatalf("find after publish: %v", err)
	}
	var sawFresh bool
	for _, m := range matches {
		if m.Adv.Name == "fresh" {
			sawFresh = true
		}
	}
	if !sawFresh {
		t.Error("newly published group missing: match cache served a stale result")
	}
	if p.MatchCacheStats().Invalidations == 0 {
		t.Error("publish did not invalidate the match cache")
	}
}

// TestProxySetReasonerInvalidatesMatches swaps the ontology and
// checks memoised results do not survive the swap.
func TestProxySetReasonerInvalidatesMatches(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := p.FindPeerGroupAdv(ctx, studentSig()); err != nil {
			t.Fatalf("find %d: %v", i, err)
		}
	}
	before := p.MatchCacheStats()

	p.SetReasoner(ontology.NewReasoner(ontology.Combined()))
	if _, err := p.FindPeerGroupAdv(ctx, studentSig()); err != nil {
		t.Fatalf("find after reasoner swap: %v", err)
	}
	after := p.MatchCacheStats()
	if after.Invalidations <= before.Invalidations {
		t.Error("reasoner swap did not invalidate the match cache")
	}
}

// TestProxyMatchCacheConcurrency hammers matchLocal against
// concurrent advertisement publishes (run under -race).
func TestProxyMatchCacheConcurrency(t *testing.T) {
	f := newFixture(t)
	p := f.addProxy(t, Config{})
	sig := studentSig()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if w%2 == 0 {
					_ = p.disco.Publish(bpeer.NewSemanticAdvertisement(
						p2p.ID(fmt.Sprintf("urn:g%d-%d", w, i%10)),
						fmt.Sprintf("g%d", i%10), sig, qos.Profile{}), time.Hour)
				} else {
					got := p.matchLocal(p.Reasoner(), sig)
					// rank sorts hits in place; it must never corrupt
					// the cache (hits are copies).
					p.rank(got)
				}
			}
		}(w)
	}
	wg.Wait()
	// Writers 0 and 2 each publish 10 distinct groups.
	if got := p.matchLocal(p.Reasoner(), sig); len(got) != 20 {
		t.Errorf("final match count = %d, want 20", len(got))
	}
}

// boundCoordinator reports the address the proxy is bound to as the
// group's coordinator, "" when it holds no binding.
func boundCoordinator(p *SWSProxy, gid p2p.ID) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	if gs := p.groups[gid]; gs != nil && gs.coord != nil {
		return gs.coord.addr
	}
	return ""
}

// TestProxyBreakerOpenDropsBinding: when a group's breaker opens, the
// cached coordinator binding must be dropped so the next admitted
// probe re-binds from scratch.
func TestProxyBreakerOpenDropsBinding(t *testing.T) {
	f := newFixture(t)
	peers := f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	p := f.addProxy(t, Config{
		CallTimeout:      100 * time.Millisecond,
		BindTimeout:      100 * time.Millisecond,
		RetryDelay:       10 * time.Millisecond,
		BreakerThreshold: 2,
		MaxAttempts:      3,
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "Op", []byte("warm")); err != nil {
		t.Fatalf("warm-up invoke: %v", err)
	}
	gid := peers[0].GroupID()
	if boundCoordinator(p, gid) == "" {
		t.Fatal("no binding cached after successful invoke")
	}

	// The lone replica dies; repeated failures open the breaker.
	if err := peers[0].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := p.Invoke(ctx, studentSig(), "Op", []byte("down")); err == nil {
		t.Fatal("invoke against a dead group succeeded")
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if p.BreakerStates()[gid] == BreakerOpen {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := p.BreakerStates()[gid]; got != BreakerOpen {
		t.Fatalf("breaker state = %v, want open", got)
	}
	if boundCoordinator(p, gid) != "" {
		t.Error("binding survived the breaker opening")
	}
}

// TestProxyFailoverInvalidatesStaleBinding asserts the binding cache
// is invalidated on coordinator crash: after re-election the proxy is
// bound to the new coordinator and never again calls the dead one.
func TestProxyFailoverInvalidatesStaleBinding(t *testing.T) {
	f := newFixture(t)
	peers := f.addGroup(t, "students", studentSig(), qos.Profile{}, 3, echo("students"))
	p := f.addProxy(t, Config{CallTimeout: 300 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "Op", []byte("warm")); err != nil {
		t.Fatalf("warm-up invoke: %v", err)
	}
	gid := peers[0].GroupID()
	oldCoord := boundCoordinator(p, gid)
	if oldCoord == "" {
		t.Fatal("no coordinator bound after warm-up")
	}

	// Crash the coordinator (highest rank) and invoke again.
	if err := peers[2].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if _, err := p.Invoke(ctx, studentSig(), "Op", []byte("after-crash")); err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	newCoord := boundCoordinator(p, gid)
	if newCoord == oldCoord {
		t.Errorf("still bound to the crashed coordinator %s", oldCoord)
	}
	if p.Rebinds() == 0 {
		t.Error("expected a re-binding after the coordinator crash")
	}

	// With the binding settled on the new coordinator, further calls
	// must not touch the dead address: tracked observations for the
	// old coordinator must not grow.
	_, _, callsBefore, _ := p.Tracker().Observed(oldCoord)
	for i := 0; i < 3; i++ {
		if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
			t.Fatalf("post-failover invoke %d: %v", i, err)
		}
	}
	_, _, callsAfter, _ := p.Tracker().Observed(oldCoord)
	if callsAfter > callsBefore {
		t.Errorf("proxy called the stale coordinator %d more times after re-election",
			callsAfter-callsBefore)
	}
}

// TestQueryCache exercises the peerctl-facing cache introspection
// round trip over the binding protocol.
func TestQueryCache(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}

	client := p2p.NewPeer("ctl", f.gen.New(p2p.PeerIDKind), f.port(t, "ctl"))
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	out, err := QueryCache(ctx, client, p.Addr())
	if err != nil {
		t.Fatalf("QueryCache: %v", err)
	}
	// Two invocations, one cold lookup: one query round that shipped the
	// one candidate.
	for _, want := range []string{
		"discovery.size 1\n", "discovery.hits", "match.entries",
		"match.hits", "bindings.coordinators",
		"discovery.remote_queries 1\n", "discovery.remote_advs 1\n", "discovery.remote_rejected 0\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cache report missing %q:\n%s", want, out)
		}
	}
}

// TestProxySetReasonerRecomputesKeys: the index keys of a find are the
// action's closure under the ontology in force. "records" advertises an
// action the first ontology does not know and the second declares
// equivalent to the requested one: after the swap the next find must
// ask the plane again, with the new closure — neither the closure nor
// the record of what was already asked may outlive the ontology they
// were computed under.
func TestProxySetReasonerRecomputesKeys(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	recordSig := studentSig()
	recordSig.Action = ontology.UniversityNS + "#RecordFetch"
	f.addGroup(t, "records", recordSig, qos.Profile{}, 1, echo("records"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	find := func() []string {
		t.Helper()
		matches, err := p.FindPeerGroupAdv(ctx, studentSig())
		if err != nil {
			t.Fatalf("find: %v", err)
		}
		var names []string
		for _, m := range matches {
			names = append(names, m.Adv.Name)
		}
		sort.Strings(names)
		return names
	}
	for i := 0; i < 2; i++ {
		if got := find(); !reflect.DeepEqual(got, []string{"students"}) {
			t.Fatalf("find %d under the first ontology = %v, want [students]", i, got)
		}
	}
	if got := p.DiscoveryStats().RemoteQueries; got != 1 {
		t.Fatalf("%d remote rounds for two finds, want 1 (the second is answered locally)", got)
	}

	o := ontology.Combined()
	o.AddClass(recordSig.Action, ontology.EquivalentTo(ontology.ConceptStudentInformation))
	p.SetReasoner(ontology.NewReasoner(o))
	for i := 0; i < 2; i++ {
		if got := find(); !reflect.DeepEqual(got, []string{"records", "students"}) {
			t.Fatalf("find %d after the swap = %v, want [records students]", i, got)
		}
	}
	if got := p.DiscoveryStats().RemoteQueries; got != 2 {
		t.Errorf("%d remote rounds, want 2: one per ontology", got)
	}
}

// TestProxyMalformedDiscoveryAnswerIsAnError: an index node whose
// answer does not decode is a discovery failure, not an empty plane.
func TestProxyMalformedDiscoveryAnswerIsAnError(t *testing.T) {
	f := newFixture(t)
	bad := p2p.NewPeer("bad", f.gen.New(p2p.PeerIDKind), f.port(t, "bad"))
	t.Cleanup(func() { _ = bad.Close() })
	p2p.NewResolverOn(bad, p2p.ProtoDiscovery).RegisterHandler("discovery.query",
		func(string, []byte) ([]byte, error) { return []byte{0x05, 0x03, '<', 'a'}, nil })
	bad.Start()
	p, err := New(f.port(t, "proxy"), Config{Name: "sws-proxy", RendezvousAddr: bad.Addr(), Reasoner: f.reasoner})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	p.Start()
	t.Cleanup(func() { _ = p.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = p.FindPeerGroupAdv(ctx, studentSig())
	if !errors.Is(err, p2p.ErrDiscoveryResponse) || errors.Is(err, ErrNoMatch) {
		t.Errorf("find: err = %v, want a discovery error wrapping p2p.ErrDiscoveryResponse", err)
	}
	if _, err := p.FindByName(ctx, "students"); !errors.Is(err, p2p.ErrDiscoveryResponse) {
		t.Errorf("find by name: err = %v, want a discovery error wrapping p2p.ErrDiscoveryResponse", err)
	}
	if s := p.DiscoveryStats(); s.RemoteQueries != 2 || s.RemoteRejected != 2 {
		t.Errorf("stats = %d rounds, %d rejected; want 2, 2", s.RemoteQueries, s.RemoteRejected)
	}
}

// TestProxyDiscoverySpanCountsKeysAndCandidates: a traced invocation's
// discovery span says how many index keys the lookup sent and how many
// candidates came back, beside how many matched; a warm one sent none.
func TestProxyDiscoverySpanCountsKeysAndCandidates(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	claimSig := ontology.Signature{Action: ontology.ConceptClaimProcessing,
		Inputs: []string{ontology.ConceptClaimID}, Outputs: []string{ontology.ConceptClaimStatus}}
	f.addGroup(t, "claims", claimSig, qos.Profile{}, 1, echo("claims"))
	col := trace.NewCollector(64)
	p := f.addProxy(t, Config{Tracer: trace.New(col)})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	discoverySpan := func() map[string]string {
		t.Helper()
		col.Reset()
		if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
			t.Fatalf("invoke: %v", err)
		}
		for _, r := range col.Snapshot() {
			if r.Name == "discovery" {
				return r.Attrs
			}
		}
		t.Fatal("no discovery span")
		return nil
	}
	keys := strconv.Itoa(len(f.reasoner.MatchingConcepts(studentSig().Action, ontology.MatchSubsume)))
	if got := discoverySpan(); got["keys"] != keys || got["candidates"] != "1" || got["matches"] != "1" {
		t.Errorf("cold discovery span = %v, want keys=%s candidates=1 matches=1", got, keys)
	}
	if got := discoverySpan(); got["keys"] != "" || got["candidates"] != "" || got["matches"] != "1" {
		t.Errorf("warm discovery span = %v, want matches=1 and no remote round", got)
	}
}
