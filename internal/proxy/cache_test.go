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

// memoise installs candidates as the plane's live answer to the
// action's lookup, as a fetch would, and returns the answer.
func memoise(p *SWSProxy, action string, candidates ...*bpeer.SemanticAdvertisement) *answer {
	a := &answer{candidates: candidates, matches: map[string][]GroupMatch{}, until: time.Now().Add(time.Hour)}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.memo[lookup{attr: "action", value: action, reasoner: p.Reasoner().Version()}] = a
	return a
}

// expireMemo ends the lifetime of every answer the proxy holds.
func expireMemo(p *SWSProxy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, a := range p.memo {
		a.until = time.Now()
	}
}

// studentGroups builds n semantic advertisements for studentSig, in ID
// order.
func studentGroups(n int) []*bpeer.SemanticAdvertisement {
	advs := make([]*bpeer.SemanticAdvertisement, n)
	for i := range advs {
		advs[i] = bpeer.NewSemanticAdvertisement(p2p.ID(fmt.Sprintf("urn:whisper:g%02d", i)),
			fmt.Sprintf("g%02d", i), studentSig(), qos.Profile{})
	}
	return advs
}

// TestLookupMemoMissRules: a lookup asks the plane when it has no
// answer, when its answer's lifetime has run out, and when its answer
// matches nothing; a live answer that matches is answered locally.
func TestLookupMemoMissRules(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("students"))
	p := f.addProxy(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rounds := func() uint64 { return p.DiscoveryStats().RemoteQueries }
	find := func(sig ontology.Signature) {
		t.Helper()
		if _, err := p.FindPeerGroupAdv(ctx, sig); err != nil && !errors.Is(err, ErrNoMatch) {
			t.Fatalf("find %s: %v", sig.Action, err)
		}
	}

	find(studentSig())
	find(studentSig())
	if got := rounds(); got != 1 {
		t.Fatalf("%d remote rounds for a cold and a warm find, want 1", got)
	}
	expireMemo(p)
	find(studentSig())
	if got := rounds(); got != 2 {
		t.Errorf("%d remote rounds after the answer's lifetime ran out, want 2", got)
	}
	nobody := studentSig()
	nobody.Action = ontology.UniversityNS + "#NoSuchAction"
	find(nobody)
	find(nobody)
	if got := rounds(); got != 4 {
		t.Errorf("%d remote rounds after two finds nothing answers, want 4: an empty answer asks again", got)
	}
	if s := p.DiscoveryStats(); s.Hits != 1 || s.Misses != 4 || s.Size != 1 {
		t.Errorf("lookups = %d hits, %d misses, %d candidates; want 1, 4, 1", s.Hits, s.Misses, s.Size)
	}
}

// TestMatchCacheHitsAreCopies: rank sorts a find's result in place, so
// a memo hit must hand out a copy and leave the memoised matches alone.
func TestMatchCacheHitsAreCopies(t *testing.T) {
	f := newFixture(t)
	p := f.addProxy(t, Config{})
	a := memoise(p, studentSig().Action, studentGroups(2)...)
	ctx := context.Background()
	got1, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil || len(got1) != 2 {
		t.Fatalf("find: %d matches, %v", len(got1), err)
	}
	got1[0], got1[1] = GroupMatch{}, GroupMatch{}
	got2, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil || len(got2) != 2 || got2[0].Adv == nil || got2[1].Adv == nil {
		t.Fatalf("second find after the first result was overwritten: %v, %v", got2, err)
	}
	p.mu.Lock()
	memoised := a.matches[sigKey(studentSig())]
	p.mu.Unlock()
	if len(memoised) != 2 || memoised[0].Adv.GID != "urn:whisper:g00" {
		t.Errorf("memoised matches changed: %v", memoised)
	}
	if s := p.MatchCacheStats(); s.Entries != 1 || s.Hits != 1 || s.Misses != 1 {
		t.Errorf("match stats = %+v, want 1 entry, 1 hit, 1 miss", s)
	}
}

// TestProxyMatchCacheServesRepeatsAndInvalidates drives the memo
// through the real proxy: repeated finds are answered locally, a group
// published later is not seen until the answer's lifetime runs out, and
// then the next find asks again and finds it (no stale negative).
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
	if s := p.MatchCacheStats(); s.Hits != 2 || s.Misses != 1 {
		t.Errorf("match stats after three finds = %+v, want 2 hits, 1 miss", s)
	}

	f.addGroup(t, "fresh", studentSig(), qos.Profile{}, 1, echo("fresh"))
	expireMemo(p)
	matches, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil {
		t.Fatalf("find after expiry: %v", err)
	}
	var sawFresh bool
	for _, m := range matches {
		if m.Adv.Name == "fresh" {
			sawFresh = true
		}
	}
	if !sawFresh {
		t.Error("newly published group missing after the memoised answer expired")
	}
	if got := p.DiscoveryStats().RemoteQueries; got != 2 {
		t.Errorf("%d remote rounds, want 2", got)
	}
}

// TestProxySetReasonerInvalidatesMatches swaps the ontology and checks
// memoised results do not survive the swap.
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
	if after.Hits != before.Hits || after.Misses != before.Misses+1 {
		t.Errorf("match stats %+v → %+v: the swap should cost one match and serve no memoised one", before, after)
	}
}

// TestProxyMatchCacheConcurrency hammers one memoised answer with finds
// for two signatures, so both match it for the first time concurrently
// (run under -race).
func TestProxyMatchCacheConcurrency(t *testing.T) {
	f := newFixture(t)
	p := f.addProxy(t, Config{})
	memoise(p, studentSig().Action, studentGroups(20)...)
	wide := studentSig()
	wide.Inputs = append(wide.Inputs, ontology.ConceptStudentInfo)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sig := studentSig()
			if w%2 == 1 {
				sig = wide
			}
			for i := 0; i < 100; i++ {
				if got, err := p.FindPeerGroupAdv(context.Background(), sig); err != nil || len(got) != 20 {
					t.Errorf("find: %d matches, %v", len(got), err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s := p.MatchCacheStats(); s.Entries != 2 || s.Hits+s.Misses != 400 {
		t.Errorf("match stats = %+v, want 2 entries and 400 finds", s)
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
	// one candidate, and one lookup answered from the memo.
	for _, want := range []string{
		"lookup.candidates 1\n", "lookup.hits 1\n", "lookup.misses 1\n",
		"match.entries 1\n", "match.hits 1\n", "match.misses 1\n", "bindings.coordinators 1\n",
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
