package p2p

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestDiscoveryLocalPublishAndQuery(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])

	adv1 := &ServiceAdvertisement{SvcID: "urn:1", Name: "StudentManagement", Operation: "StudentInformation"}
	adv2 := &ServiceAdvertisement{SvcID: "urn:2", Name: "ClaimService", Operation: "ProcessClaim"}
	grp := &PeerGroupAdvertisement{GID: "urn:g1", Name: "students"}
	for _, adv := range []Advertisement{adv1, adv2, grp} {
		if err := d.Publish(adv, 0); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}

	if got := d.GetLocalAdvertisements(ServiceAdvType, "", ""); len(got) != 2 {
		t.Errorf("all services = %d, want 2", len(got))
	}
	if got := d.GetLocalAdvertisements(ServiceAdvType, "Name", "StudentManagement"); len(got) != 1 {
		t.Errorf("by name = %d, want 1", len(got))
	}
	if got := d.GetLocalAdvertisements(PeerGroupAdvType, "", ""); len(got) != 1 {
		t.Errorf("groups = %d, want 1", len(got))
	}
	if got := d.GetLocalAdvertisements(ServiceAdvType, "Name", "nope"); len(got) != 0 {
		t.Errorf("no match = %d, want 0", len(got))
	}
}

func TestDiscoveryWildcards(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "StudentManagement"}, 0)
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:2", Name: "StudentRegistry"}, 0)
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:3", Name: "ClaimManagement"}, 0)

	tests := []struct {
		value string
		want  int
	}{
		{"Student*", 2},
		{"*Management", 2},
		{"*ent*", 3}, // StudentManagement, StudentRegistry, ClaimManagement
		{"*", 3},
		{"StudentManagement", 1},
	}
	for _, tt := range tests {
		if got := len(d.GetLocalAdvertisements(ServiceAdvType, "Name", tt.value)); got != tt.want {
			t.Errorf("value %q matched %d, want %d", tt.value, got, tt.want)
		}
	}
}

// testClock is a settable clock, safe for concurrent use.
type testClock struct{ ns atomic.Int64 }

func newTestClock() *testClock {
	c := &testClock{}
	c.ns.Store(time.Unix(1_700_000_000, 0).UnixNano())
	return c
}

func (c *testClock) Now() time.Time { return time.Unix(0, c.ns.Load()) }

func (c *testClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestDiscoveryExpiration: a lifetime runs on the store's clock, and an
// advertisement stops being answered at its deadline.
func TestDiscoveryExpiration(t *testing.T) {
	h := newHarness(t, 1)
	clock := newTestClock()
	d := newDiscoveryService(h.peers[0], clock)

	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "ephemeral"}, 100*time.Millisecond)
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:2", Name: "durable"}, time.Hour)

	clock.advance(99 * time.Millisecond)
	if got := len(d.GetLocalAdvertisements(ServiceAdvType, "", "")); got != 2 {
		t.Fatalf("before the deadline = %d, want 2", got)
	}
	clock.advance(time.Millisecond)
	got := d.GetLocalAdvertisements(ServiceAdvType, "", "")
	if len(got) != 1 || got[0].Attributes()["Name"] != "durable" {
		t.Errorf("at the deadline = %v, want only durable", got)
	}
}

// TestDiscoveryTombstoneUnindexes: a tombstone applied to the store
// removes the advertisement from the index.
func TestDiscoveryTombstoneUnindexes(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "S"}, 0)
	d.store.Apply(d.pub.Tombstone("urn:1"))
	if got := len(d.GetLocalAdvertisements(ServiceAdvType, "", "")); got != 0 {
		t.Errorf("after the tombstone = %d, want 0", got)
	}
	if s := d.Stats(); s.Size != 0 || s.IndexKeys != 0 {
		t.Errorf("after the tombstone: size %d, %d index keys; want 0, 0", s.Size, s.IndexKeys)
	}
}

func TestDiscoveryRemoteQuery(t *testing.T) {
	h := newHarness(t, 3)
	querier := NewDiscoveryService(h.peers[0])
	d1 := NewDiscoveryService(h.peers[1])
	d2 := NewDiscoveryService(h.peers[2])
	_ = d1.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "StudentManagement"}, 0)
	_ = d2.Publish(&ServiceAdvertisement{SvcID: "urn:2", Name: "StudentManagement"}, 0)
	_ = d2.Publish(&ServiceAdvertisement{SvcID: "urn:3", Name: "Other"}, 0)
	for _, p := range h.peers {
		p.Start()
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := querier.RemoteGetAdvertisements(ctx,
		[]string{h.peers[1].Addr(), h.peers[2].Addr()},
		ServiceAdvType, "Name", "StudentManagement", 0)
	if err != nil {
		t.Fatalf("remote query: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("remote advs = %d, want 2", len(got))
	}
}

func TestDiscoveryRemoteQueryLimit(t *testing.T) {
	h := newHarness(t, 2)
	querier := NewDiscoveryService(h.peers[0])
	d1 := NewDiscoveryService(h.peers[1])
	for i := 0; i < 5; i++ {
		_ = d1.Publish(&ServiceAdvertisement{SvcID: ID(rune('0' + i)), Name: "S"}, 0)
	}
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := querier.RemoteGetAdvertisements(ctx, []string{h.peers[1].Addr()},
		ServiceAdvType, "Name", "S", 2)
	if err != nil {
		t.Fatalf("remote query: %v", err)
	}
	if len(got) != 2 {
		t.Errorf("limited advs = %d, want 2", len(got))
	}
}

// TestDiscoveryRemoteQueryRetiresPending: however a remote query's
// collection ends — every target answered, the context expired on a
// silent target, or the limit was reached early — the querier's
// resolver forgets the query. A long-lived proxy pays one remote query
// per cold find; an entry left behind each time is a leak.
func TestDiscoveryRemoteQueryRetiresPending(t *testing.T) {
	h := newHarness(t, 3)
	querier := NewDiscoveryService(h.peers[0])
	d1 := NewDiscoveryService(h.peers[1])
	for i := 0; i < 5; i++ {
		_ = d1.Publish(&ServiceAdvertisement{SvcID: ID(rune('0' + i)), Name: "S"}, 0)
	}
	h.peers[0].Start()
	h.peers[1].Start()
	// h.peers[2] never starts: queries to it are never answered.
	live, silent := h.peers[1].Addr(), h.peers[2].Addr()

	for i := 0; i < 20; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		got, err := querier.RemoteGetAdvertisements(ctx, []string{live}, ServiceAdvType, "Name", "S", 0)
		cancel()
		if err != nil || len(got) != 5 {
			t.Fatalf("answered query %d: %d advs, err %v", i, len(got), err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := querier.RemoteGetAdvertisements(ctx, []string{silent}, ServiceAdvType, "Name", "S", 0); err == nil {
		t.Error("query to a silent target: expected the context's error")
	}
	cancel()
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	got, err := querier.RemoteGetAdvertisements(ctx, []string{live, silent}, ServiceAdvType, "Name", "S", 2)
	cancel()
	if err != nil || len(got) != 2 {
		t.Fatalf("limited query: %d advs, err %v", len(got), err)
	}

	querier.resolver.mu.Lock()
	left := len(querier.resolver.pending)
	querier.resolver.mu.Unlock()
	if left != 0 {
		t.Errorf("%d pending entries left after 22 finished queries, want 0", left)
	}
}

func TestDiscoveryRemoteQueryDeduplicates(t *testing.T) {
	h := newHarness(t, 3)
	querier := NewDiscoveryService(h.peers[0])
	d1 := NewDiscoveryService(h.peers[1])
	d2 := NewDiscoveryService(h.peers[2])
	same := &ServiceAdvertisement{SvcID: "urn:dup", Name: "S"}
	_ = d1.Publish(same, 0)
	_ = d2.Publish(same, 0)
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := querier.RemoteGetAdvertisements(ctx,
		[]string{h.peers[1].Addr(), h.peers[2].Addr()}, ServiceAdvType, "", "", 0)
	if err != nil {
		t.Fatalf("remote query: %v", err)
	}
	if len(got) != 1 {
		t.Errorf("deduped advs = %d, want 1", len(got))
	}
}

// TestDiscoveryAnswerSendsPublishedBytes: a remote query is answered
// with the bytes each advertisement was published with — framed, never
// re-marshalled or escaped — and those are the bytes marshalling every
// selected advertisement per query would produce. Several values select
// the union of their matches, each advertisement once.
func TestDiscoveryAnswerSendsPublishedBytes(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	advs := []Advertisement{
		&ServiceAdvertisement{SvcID: "urn:2", Name: "Claim & <Service>", Operation: "ProcessClaim"},
		&ServiceAdvertisement{SvcID: "urn:1", Name: "StudentManagement", Operation: "StudentInformation"},
		&ServiceAdvertisement{SvcID: "urn:3", Name: "StudentRegistry"},
	}
	for _, adv := range advs {
		if err := d.Publish(adv, 0); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	for _, tc := range []struct {
		q    discoveryQueryDoc
		want []ID
	}{
		{q: discoveryQueryDoc{Type: ServiceAdvType}, want: []ID{"urn:1", "urn:2", "urn:3"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name", Values: []string{"*"}}, want: []ID{"urn:1", "urn:2", "urn:3"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name", Values: []string{"Student*"}}, want: []ID{"urn:1", "urn:3"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name", Values: []string{"StudentRegistry"}}, want: []ID{"urn:3"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name", Values: []string{"Claim & <Service>"}}, want: []ID{"urn:2"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Limit: 2}, want: []ID{"urn:1", "urn:2"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name", Values: []string{"nobody"}}},
		// Union of exact values; an unknown value contributes nothing.
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name",
			Values: []string{"StudentRegistry", "nobody", "Claim & <Service>"}}, want: []ID{"urn:2", "urn:3"}},
		// One advertisement selected twice is answered once.
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name",
			Values: []string{"StudentRegistry", "Student*", "StudentRegistry"}}, want: []ID{"urn:1", "urn:3"}},
		{q: discoveryQueryDoc{Type: ServiceAdvType, Attr: "Name",
			Values: []string{"StudentRegistry", "StudentManagement", "Claim & <Service>"}, Limit: 2}, want: []ID{"urn:1", "urn:2"}},
	} {
		got, err := d.answerQuery("", tc.q.encode())
		if err != nil {
			t.Fatalf("answer %+v: %v", tc.q, err)
		}
		// Reference: marshal each selected advertisement again.
		var ref [][]byte
		for _, id := range tc.want {
			for _, adv := range advs {
				if adv.AdvID() == id {
					raw, err := adv.MarshalAdv()
					if err != nil {
						t.Fatal(err)
					}
					ref = append(ref, raw)
				}
			}
		}
		if want := encodeDocs(ref); !bytes.Equal(got, want) {
			t.Errorf("query %+v:\n got %q\nwant %q", tc.q, got, want)
		}
		docs, err := decodeDocs(got)
		if err != nil || len(docs) != len(ref) {
			t.Fatalf("query %+v: answer decodes to %d documents, %v; want %d", tc.q, len(docs), err, len(ref))
		}
		for i := range docs {
			if !bytes.Equal(docs[i], ref[i]) {
				t.Errorf("query %+v: document %d is not the published bytes", tc.q, i)
			}
		}
	}
}

// respondWith attaches a peer whose discovery handler answers every
// query with payload, whatever it is.
func respondWith(peer *Peer, payload []byte) {
	NewResolverOn(peer, ProtoDiscovery).RegisterHandler(discoveryQueryHandler,
		func(string, []byte) ([]byte, error) { return payload, nil })
}

// TestDiscoveryMalformedResponseIsAnError: an answer that does not
// decode is that node's failure, not "no advertisements": it is the
// query's error when no node answered validly and is ignored when
// another did.
func TestDiscoveryMalformedResponseIsAnError(t *testing.T) {
	h := newHarness(t, 4)
	querier := NewDiscoveryService(h.peers[0])
	good := NewDiscoveryService(h.peers[1])
	_ = good.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "S"}, 0)
	valid := encodeDocs([][]byte{[]byte("<x/>")})
	respondWith(h.peers[2], valid[:len(valid)-2]) // truncated inside the document
	respondWith(h.peers[3], []byte("<DiscoveryResponse></DiscoveryResponse>"))
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	live, truncated, legacy := h.peers[1].Addr(), h.peers[2].Addr(), h.peers[3].Addr()

	for _, bad := range []string{truncated, legacy} {
		advs, err := querier.RemoteGetAdvertisements(ctx, []string{bad}, ServiceAdvType, "Name", "S", 0)
		if !errors.Is(err, ErrDiscoveryResponse) || advs != nil {
			t.Errorf("only %s answered: got %v, %v; want ErrDiscoveryResponse", bad, advs, err)
		}
		if advs, err := querier.Fetch(ctx, []string{bad}, ServiceAdvType, "Name", []string{"S"}); !errors.Is(err, ErrDiscoveryResponse) || advs != nil {
			t.Errorf("fetch from %s: got %v, %v; want ErrDiscoveryResponse", bad, advs, err)
		}
	}
	advs, err := querier.RemoteGetAdvertisements(ctx, []string{truncated, live, legacy}, ServiceAdvType, "Name", "S", 0)
	if err != nil || len(advs) != 1 {
		t.Errorf("a valid answer beside two malformed ones: got %d advertisements, %v; want 1, nil", len(advs), err)
	}
	// A valid empty answer beside a malformed one is still an answer.
	advs, err = querier.RemoteGetAdvertisements(ctx, []string{truncated, live}, ServiceAdvType, "Name", "nobody", 0)
	if err != nil || len(advs) != 0 {
		t.Errorf("a valid empty answer beside a malformed one: got %d advertisements, %v; want 0, nil", len(advs), err)
	}
	if s := querier.Stats(); s.RemoteQueries != 6 || s.RemoteAdvs != 1 || s.RemoteRejected != 7 {
		t.Errorf("stats = %d queries, %d advs, %d rejected; want 6, 1, 7", s.RemoteQueries, s.RemoteAdvs, s.RemoteRejected)
	}
}

// TestDiscoveryUnparsableDocumentIsSkipped: a document inside a valid
// frame that is no advertisement is skipped and counted; its
// neighbours are delivered.
func TestDiscoveryUnparsableDocumentIsSkipped(t *testing.T) {
	h := newHarness(t, 2)
	querier := NewDiscoveryService(h.peers[0])
	a, err := (&ServiceAdvertisement{SvcID: "urn:a", Name: "S & <T>"}).MarshalAdv()
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&ServiceAdvertisement{SvcID: "urn:b", Name: "S & <T>"}).MarshalAdv()
	if err != nil {
		t.Fatal(err)
	}
	respondWith(h.peers[1], encodeDocs([][]byte{a, []byte("<unknown:Adv/>"), []byte("not xml"), b}))
	for _, p := range h.peers {
		p.Start()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	advs, err := querier.Fetch(ctx, []string{h.peers[1].Addr()}, ServiceAdvType, "Name", []string{"S & <T>"})
	if err != nil || len(advs) != 2 || advs[0].AdvID() != "urn:a" || advs[1].AdvID() != "urn:b" {
		t.Fatalf("fetch: %v, %v; want urn:a and urn:b", advs, err)
	}
	if name := advs[0].Attributes()["Name"]; name != "S & <T>" {
		t.Errorf("fetched name = %q, want %q", name, "S & <T>")
	}
	if s := querier.Stats(); s.RemoteAdvs != 2 || s.RemoteRejected != 2 || s.Size != 0 {
		t.Errorf("stats = %d advs, %d rejected, size %d; want 2, 2, 0 (a fetch caches nothing)", s.RemoteAdvs, s.RemoteRejected, s.Size)
	}
}

func TestDiscoveryRemoteQueryNoTargets(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	got, err := d.RemoteGetAdvertisements(context.Background(), nil, ServiceAdvType, "", "", 0)
	if err != nil || got != nil {
		t.Errorf("no targets: got %v, %v; want nil, nil", got, err)
	}
}

// TestDiscoveryRepublishReindexes: re-publishing an advertisement with
// changed attributes must update the index — the old attribute values
// must stop matching and the new ones must start.
func TestDiscoveryRepublishReindexes(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "OldName"}, 0)
	_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "NewName"}, 0)

	if got := len(d.GetLocalAdvertisements(ServiceAdvType, "Name", "OldName")); got != 0 {
		t.Errorf("old name still matches %d entries, want 0 (dangling index posting)", got)
	}
	if got := len(d.GetLocalAdvertisements(ServiceAdvType, "Name", "NewName")); got != 1 {
		t.Errorf("new name matches %d entries, want 1", got)
	}
	if got := d.Stats().Size; got != 1 {
		t.Errorf("cache size = %d, want 1 after republish", got)
	}
}

// TestDiscoveryIndexNeverServesExpired: an expired entry must not be
// returned from any query path — exact index, type set, wildcard scan,
// full scan, or a remote query's answer — whether or not anything swept
// the store since its deadline: each path's own lookup is the first to
// see it dead.
func TestDiscoveryIndexNeverServesExpired(t *testing.T) {
	h := newHarness(t, 1)
	clock := newTestClock()
	d := newDiscoveryService(h.peers[0], clock)

	local := func(advType, attr, value string) func() int {
		return func() int { return len(d.GetLocalAdvertisements(advType, attr, value)) }
	}
	paths := []struct {
		name  string
		count func() int
	}{
		{"exact", local(ServiceAdvType, "Name", "Ephemeral")},
		{"type", local(ServiceAdvType, "", "")},
		{"wildcard", local(ServiceAdvType, "Name", "Ephem*")},
		{"full-scan", local("", "", "")},
		{"remote-answer", func() int {
			out, err := d.answerQuery("", (&discoveryQueryDoc{Type: ServiceAdvType}).encode())
			docs, derr := decodeDocs(out)
			if err != nil || derr != nil {
				t.Fatalf("answer: %v, %v", err, derr)
			}
			return len(docs)
		}},
	}
	for _, p := range paths {
		_ = d.Publish(&ServiceAdvertisement{SvcID: "urn:1", Name: "Ephemeral"}, 50*time.Millisecond)
		if got := p.count(); got != 1 {
			t.Fatalf("%s path returned %d live advertisements, want 1", p.name, got)
		}
		clock.advance(time.Minute)
		if got := p.count(); got != 0 {
			t.Errorf("%s path returned %d expired advertisements, want 0", p.name, got)
		}
	}
	if s := d.store.Stats(); s.Expired != uint64(len(paths)) {
		t.Errorf("store expired %d entries, want %d (one per path)", s.Expired, len(paths))
	}
}

// TestDiscoveryIndexConcurrency hammers publish, tombstones, expiry and
// every query path concurrently (run under -race) while the store's
// clock runs, then checks that no posting leaked.
func TestDiscoveryIndexConcurrency(t *testing.T) {
	h := newHarness(t, 1)
	clock := newTestClock()
	d := newDiscoveryService(h.peers[0], clock)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			clock.advance(100 * time.Microsecond)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := ID(fmt.Sprintf("urn:w%d-%d", w, i%20))
				switch i % 4 {
				case 0:
					_ = d.Publish(&ServiceAdvertisement{SvcID: id, Name: fmt.Sprintf("Svc%d", i%20)}, time.Duration(1+i%3)*time.Millisecond)
				case 1:
					_ = d.GetLocalAdvertisements(ServiceAdvType, "Name", fmt.Sprintf("Svc%d", i%20))
				case 2:
					_ = d.GetLocalAdvertisements(ServiceAdvType, "Name", "Svc*")
				default:
					d.store.Apply(d.pub.Tombstone(string(id)))
				}
			}
		}(w)
	}
	wg.Wait()
	// A lookup sweeps every entry past its deadline out of the index.
	clock.advance(time.Hour)
	if got := len(d.GetLocalAdvertisements("", "", "")); got != 0 {
		t.Errorf("%d advertisements served an hour past every lifetime, want 0", got)
	}
	if got := d.Stats().Size; got != 0 {
		t.Errorf("cache size = %d after everything died, want 0", got)
	}
	if got := d.Stats().IndexKeys; got != 0 {
		t.Errorf("index keys = %d after everything died, want 0 (leaked postings)", got)
	}
}

func TestDiscoveryConcurrentPublishQuery(t *testing.T) {
	h := newHarness(t, 1)
	d := NewDiscoveryService(h.peers[0])
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			_ = d.Publish(&ServiceAdvertisement{
				SvcID: ID(fmt.Sprintf("urn:c%d", i)),
				Name:  "Concurrent",
			}, time.Hour)
		}
	}()
	for i := 0; i < 200; i++ {
		_ = d.GetLocalAdvertisements(ServiceAdvType, "Name", "Concurrent")
		_ = d.GetLocalAdvertisements(ServiceAdvType, "", "")
	}
	<-done
	if got := len(d.GetLocalAdvertisements(ServiceAdvType, "Name", "Concurrent")); got != 200 {
		t.Errorf("final advs = %d, want 200", got)
	}
}
