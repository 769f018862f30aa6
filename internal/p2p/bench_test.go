package p2p

import (
	"context"
	"fmt"
	"testing"
	"time"

	"whisper/internal/simnet"
)

func BenchmarkAdvertisementRoundTrip(b *testing.B) {
	EnsureBuiltinAdvTypes()
	adv := &ServiceAdvertisement{
		SvcID:     "urn:jxta:id-bench",
		Name:      "StudentManagement",
		Operation: "StudentInformation",
		PipeID:    "urn:jxta:pipe-bench",
		Addr:      "host:1234",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := adv.MarshalAdv()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ParseAdvertisement(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDiscovery builds a discovery cache holding n service
// advertisements.
func benchDiscovery(b testing.TB, n int) *DiscoveryService {
	b.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	b.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("d")
	if err != nil {
		b.Fatal(err)
	}
	peer := NewPeer("d", "urn:p", port)
	b.Cleanup(func() { _ = peer.Close() })
	d := NewDiscoveryService(peer)
	for i := 0; i < n; i++ {
		_ = d.Publish(&ServiceAdvertisement{
			SvcID: ID(fmt.Sprintf("urn:svc-%d", i)),
			Name:  fmt.Sprintf("Service%d", i),
		}, time.Hour)
	}
	return d
}

// BenchmarkDiscoveryLocalQuery is the proxy's discovery hot path: an
// exact attribute query against a 1k-advertisement cache, answered
// from the (advType, attr, value) index without scanning.
func BenchmarkDiscoveryLocalQuery(b *testing.B) {
	d := benchDiscovery(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := d.GetLocalAdvertisements(ServiceAdvType, "Name", "Service42"); len(got) != 1 {
			b.Fatalf("got %d", len(got))
		}
	}
}

// BenchmarkDiscoveryLocalQueryWildcard is the fallback scan path:
// wildcard values cannot use the exact index and scan the type's
// entries.
func BenchmarkDiscoveryLocalQueryWildcard(b *testing.B) {
	d := benchDiscovery(b, 1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := d.GetLocalAdvertisements(ServiceAdvType, "Name", "Service42*"); len(got) == 0 {
			b.Fatal("no results")
		}
	}
}

// BenchmarkDiscoveryPublish measures insert+index cost.
func BenchmarkDiscoveryPublish(b *testing.B) {
	d := benchDiscovery(b, 0)
	adv := &ServiceAdvertisement{SvcID: "urn:svc-bench", Name: "ServiceBench"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Publish(adv, time.Hour); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolverQueryZeroLatency(b *testing.B) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	defer func() { _ = net.Close() }()
	gen := NewIDGen(1)
	mk := func(name string) *Peer {
		port, err := net.NewPort(name)
		if err != nil {
			b.Fatal(err)
		}
		p := NewPeer(name, gen.New(PeerIDKind), port)
		p.Start()
		return p
	}
	a, c := mk("a"), mk("c")
	defer func() { _ = a.Close() }()
	defer func() { _ = c.Close() }()
	ra := NewResolver(a)
	rc := NewResolver(c)
	rc.RegisterHandler("echo", func(_ string, payload []byte) ([]byte, error) { return payload, nil })

	ctx := context.Background()
	payload := []byte("benchmark-payload")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ra.Query(ctx, c.Addr(), "echo", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoveryAnswerKeys is the index node's side of a cold
// find: one query carrying a four-value key set, answered from a
// 64-advertisement catalogue spread over eight operations — decode the
// query, union four posting sets, frame the published bytes.
func BenchmarkDiscoveryAnswerKeys(b *testing.B) {
	d := benchDiscovery(b, 0)
	for i := 0; i < 64; i++ {
		_ = d.Publish(&ServiceAdvertisement{
			SvcID:     ID(fmt.Sprintf("urn:svc-%02d", i)),
			Name:      fmt.Sprintf("Service%d", i),
			Operation: fmt.Sprintf("http://example.org/ontology#Operation%d", i%8),
		}, time.Hour)
	}
	q := discoveryQueryDoc{Type: ServiceAdvType, Attr: "Operation"}
	for _, op := range []int{1, 3, 5, 9} { // the last one nobody advertises
		q.Values = append(q.Values, fmt.Sprintf("http://example.org/ontology#Operation%d", op))
	}
	payload := q.encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := d.answerQuery("", payload)
		if err != nil {
			b.Fatal(err)
		}
		if docs, err := decodeDocs(out); err != nil || len(docs) != 24 {
			b.Fatalf("answered %d documents, %v; want 24", len(docs), err)
		}
	}
}
