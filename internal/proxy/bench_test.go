package proxy

import (
	"fmt"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/simnet"
)

// benchPlane starts an index node "rdv" on a zero-latency network and
// publishes advs to it. No b-peers run: the benchmarks target the
// discovery + matchmaking path only.
func benchPlane(b *testing.B, advs []*bpeer.SemanticAdvertisement) *simnet.Network {
	b.Helper()
	bpeer.EnsureAdvTypes()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	b.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("rdv")
	if err != nil {
		b.Fatal(err)
	}
	rdv := p2p.NewPeer("rdv", "urn:whisper:bench-rdv", port)
	b.Cleanup(func() { _ = rdv.Close() })
	index := p2p.NewDiscoveryService(rdv)
	for _, adv := range advs {
		if err := index.Publish(adv, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
	rdv.Start()
	return net
}

func benchProxyOn(b *testing.B, net *simnet.Network, name string, r *ontology.Reasoner) *SWSProxy {
	b.Helper()
	port, err := net.NewPort(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(port, Config{Name: name, RendezvousAddr: "rdv", Reasoner: r})
	if err != nil {
		b.Fatal(err)
	}
	p.Start()
	return p
}

// benchProxy builds a proxy whose lookup memo holds the plane's answer
// for studentSig's action: n semantic group advertisements, all
// matching studentSig, fetched by one cold find.
func benchProxy(b *testing.B, n int) *SWSProxy {
	b.Helper()
	sig := studentSig()
	advs := make([]*bpeer.SemanticAdvertisement, n)
	for i := range advs {
		advs[i] = bpeer.NewSemanticAdvertisement(
			p2p.ID(fmt.Sprintf("urn:whisper:bench-g%d", i)),
			fmt.Sprintf("bench-group-%d", i), sig, qos.Profile{})
	}
	p := benchProxyOn(b, benchPlane(b, advs), "bench-proxy", ontology.NewReasoner(ontology.Combined()))
	b.Cleanup(func() { _ = p.Close() })
	if got, err := p.FindPeerGroupAdv(b.Context(), sig); err != nil || len(got) != n {
		b.Fatalf("cold find matched %d groups, %v", len(got), err)
	}
	return p
}

// benchMemo returns the lookup the proxy's cold find memoised for
// studentSig and the candidates the plane answered it with.
func benchMemo(p *SWSProxy) (lookup, []*bpeer.SemanticAdvertisement) {
	q := lookup{attr: "action", value: studentSig().Action, reasoner: p.Reasoner().Version()}
	p.mu.Lock()
	defer p.mu.Unlock()
	return q, p.memo[q].candidates
}

// BenchmarkSemanticMatchCached is the proxy's steady-state discovery
// path: the plane's answer to the action is memoised and the signature
// was matched against it before, so the memo answers without touching
// the reasoner.
func BenchmarkSemanticMatchCached(b *testing.B) {
	p := benchProxy(b, 50)
	q, _ := benchMemo(p)
	key := sigKey(studentSig())
	rematch := func([]*bpeer.SemanticAdvertisement) []GroupMatch {
		b.Fatal("a memo hit ran the matcher")
		return nil
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, ok := p.memoHit(q, key, rematch); !ok || len(got) != 50 {
			b.Fatalf("memo hit matched %d groups", len(got))
		}
	}
}

// BenchmarkSemanticMatchUncached is the work the memo saves: every
// iteration runs the reasoner over one answer's 50 candidates.
func BenchmarkSemanticMatchUncached(b *testing.B) {
	p := benchProxy(b, 50)
	_, candidates := benchMemo(p)
	r, sig := p.Reasoner(), studentSig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.match(r, sig, candidates); len(got) != 50 {
			b.Fatalf("matched %d groups", len(got))
		}
	}
}

// BenchmarkFindPeerGroupAdv is the full local discovery call the
// paper's findPeerGroupAdv pseudocode describes: the plane has been
// asked, so the memo answers — memoised matches plus QoS ranking.
func BenchmarkFindPeerGroupAdv(b *testing.B) {
	p := benchProxy(b, 50)
	sig := studentSig()
	ctx := b.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.FindPeerGroupAdv(ctx, sig); err != nil {
			b.Fatal(err)
		}
	}
	if got := p.DiscoveryStats().RemoteQueries; got != 1 {
		b.Fatalf("%d remote queries, want the warm-up's one", got)
	}
}

// benchCatalogue is a 64-group catalogue over both domain ontologies,
// its groups dealt round-robin over nine advertised actions; three of
// them (and so a third of the groups) are in studentSig's closure.
func benchCatalogue() []*bpeer.SemanticAdvertisement {
	student, claim := studentSig(), ontology.Signature{
		Inputs: []string{ontology.ConceptClaimID}, Outputs: []string{ontology.ConceptClaimStatus},
	}
	var sigs []ontology.Signature
	for _, name := range []string{"StudentInformation", "StudentLookup", "EnrollmentManagement", "GradeSubmission", "AcademicAction"} {
		student.Action = ontology.UniversityNS + "#" + name
		sigs = append(sigs, student)
	}
	for _, name := range []string{"ClaimProcessing", "LoanApproval", "CarePlanning", "BusinessAction"} {
		claim.Action = ontology.B2BNS + "#" + name
		sigs = append(sigs, claim)
	}
	advs := make([]*bpeer.SemanticAdvertisement, 64)
	for i := range advs {
		advs[i] = bpeer.NewSemanticAdvertisement(p2p.ID(fmt.Sprintf("urn:whisper:cat-g%02d", i)),
			fmt.Sprintf("G%02d", i), sigs[i%len(sigs)], qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99})
	}
	return advs
}

// BenchmarkFindPeerGroupAdvCold is the first find of a proxy's life:
// closure lookup, one keyed query to an index node holding the
// 64-group catalogue, match of the candidates it answers, and rank. Each iteration uses a fresh proxy; only its find is
// timed.
func BenchmarkFindPeerGroupAdvCold(b *testing.B) {
	net := benchPlane(b, benchCatalogue())
	r := ontology.NewReasoner(ontology.Combined())
	sig := studentSig()
	ctx := b.Context()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := benchProxyOn(b, net, fmt.Sprintf("cold-%d", i), r)
		b.StartTimer()
		got, err := p.FindPeerGroupAdv(ctx, sig)
		b.StopTimer()
		if err != nil || len(got) == 0 {
			b.Fatalf("cold find: %d groups, %v", len(got), err)
		}
		_ = p.Close()
		b.StartTimer()
	}
}
