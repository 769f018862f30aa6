package gossip

import (
	"testing"
	"time"

	"whisper/internal/simnet"
)

// fakeClock is a settable test clock.
type fakeClock struct{ t time.Time }

func (f *fakeClock) Now() time.Time { return f.t }

func (f *fakeClock) advance(d time.Duration) { f.t = f.t.Add(d) }

func newTestClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_700_000_000, 0)}
}

func liveEntry(key, origin string, version uint64, clock simnet.Clock, lifetime time.Duration) Entry {
	return Entry{
		Key:     key,
		Origin:  origin,
		Version: version,
		Expire:  clock.Now().Add(lifetime).UnixNano(),
		Payload: []byte("<Adv>" + key + "</Adv>"),
	}
}

func TestStoreVersionOrdering(t *testing.T) {
	clock := newTestClock()
	s := NewStore(clock, time.Hour)

	if res := s.Apply(liveEntry("k1", "o1", 5, clock, time.Hour)); !res.Applied || !res.New || !res.Live {
		t.Fatalf("first apply: %+v", res)
	}
	// Older version: rejected.
	if res := s.Apply(liveEntry("k1", "o1", 3, clock, time.Hour)); res.Applied {
		t.Fatalf("stale version applied")
	}
	// Same version: rejected (not newer).
	if res := s.Apply(liveEntry("k1", "o1", 5, clock, time.Hour)); res.Applied {
		t.Fatalf("equal version applied")
	}
	// Newer version: applied, not new.
	if res := s.Apply(liveEntry("k1", "o1", 9, clock, time.Hour)); !res.Applied || res.New {
		t.Fatalf("newer version: %+v", res)
	}
	got, ok := s.Get("k1")
	if !ok || got.Version != 9 {
		t.Fatalf("stored version = %d, want 9", got.Version)
	}
	if st := s.Stats(); st.Entries != 1 || st.Live != 1 || st.Rejected != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestStoreTombstoneBeatsLiveAtSameVersion(t *testing.T) {
	clock := newTestClock()
	s := NewStore(clock, time.Hour)
	s.Apply(liveEntry("k", "o", 7, clock, time.Hour))
	tomb := Entry{Key: "k", Origin: "o", Version: 7, Deleted: true, Expire: clock.Now().UnixNano()}
	if res := s.Apply(tomb); !res.Applied || res.Live {
		t.Fatalf("tombstone tie-break: %+v", res)
	}
	// The live copy at the same version must now lose.
	if res := s.Apply(liveEntry("k", "o", 7, clock, time.Hour)); res.Applied {
		t.Fatalf("live entry resurrected over same-version tombstone")
	}
}

func TestStoreExpiredOnArrivalBecomesTombstone(t *testing.T) {
	clock := newTestClock()
	s := NewStore(clock, time.Hour)
	e := liveEntry("k", "o", 2, clock, time.Second)
	clock.advance(5 * time.Second) // e is now past its deadline
	res := s.Apply(e)
	if !res.Applied || res.Live {
		t.Fatalf("expired-on-arrival: %+v", res)
	}
	got, _ := s.Get("k")
	if !got.Deleted || got.Payload != nil {
		t.Fatalf("expired arrival stored live: %+v", got)
	}
	// A staler live copy must not resurrect it.
	if res := s.Apply(liveEntry("k", "o", 1, clock, time.Hour)); res.Applied {
		t.Fatalf("stale copy resurrected expired entry")
	}
}

func TestStoreSweepExpiresThenCollects(t *testing.T) {
	clock := newTestClock()
	s := NewStore(clock, time.Minute)
	var deaths []string
	s.OnApply(func(e Entry, live bool) {
		if !live {
			deaths = append(deaths, e.Key)
		}
	})
	s.Apply(liveEntry("a", "o", 1, clock, time.Second))
	s.Apply(liveEntry("b", "o", 2, clock, time.Hour))

	// Before any deadline the sweep is free.
	if exp, gc := s.SweepExpired(); exp != 0 || gc != 0 {
		t.Fatalf("premature sweep: %d %d", exp, gc)
	}
	clock.advance(2 * time.Second)
	exp, gc := s.SweepExpired()
	if exp != 1 || gc != 0 {
		t.Fatalf("sweep after expiry: exp=%d gc=%d", exp, gc)
	}
	if len(deaths) != 1 || deaths[0] != "a" {
		t.Fatalf("death callbacks: %v", deaths)
	}
	if st := s.Stats(); st.Live != 1 || st.Entries != 2 {
		t.Fatalf("stats after expiry: %+v", st)
	}
	// TombstoneTTL later the tombstone is collected.
	clock.advance(2 * time.Minute)
	if _, gc := s.SweepExpired(); gc != 1 {
		t.Fatalf("tombstone not collected")
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("stats after GC: %+v", st)
	}
}

func TestStoreChecksumOrderIndependent(t *testing.T) {
	clock := newTestClock()
	a := NewStore(clock, time.Hour)
	b := NewStore(clock, time.Hour)
	entries := []Entry{
		liveEntry("k1", "o1", 1, clock, time.Hour),
		liveEntry("k2", "o1", 2, clock, time.Hour),
		liveEntry("k3", "o2", 7, clock, time.Hour),
	}
	for _, e := range entries {
		a.Apply(e)
	}
	for i := len(entries) - 1; i >= 0; i-- {
		b.Apply(entries[i])
	}
	if a.Stats().Checksum != b.Stats().Checksum {
		t.Fatalf("checksums diverge: %x vs %x", a.Stats().Checksum, b.Stats().Checksum)
	}
	if a.Stats().Checksum == 0 {
		t.Fatalf("checksum of non-empty store is zero")
	}
}

func TestDigestDeltaRoundTrip(t *testing.T) {
	clock := newTestClock()
	src := NewStore(clock, time.Hour)
	dst := NewStore(clock, time.Hour)
	for i := 0; i < 50; i++ {
		src.Apply(liveEntry(key(i), origin(i%3), uint64(100+i), clock, time.Hour))
	}
	// dst already holds a prefix from origin(0).
	dst.Apply(liveEntry(key(0), origin(0), 100, clock, time.Hour))

	digest := dst.AppendDigest(nil)
	parsed, off, err := ParseDigest(nil, digest)
	if err != nil {
		t.Fatalf("parse digest: %v", err)
	}
	if off != len(digest) {
		t.Fatalf("digest parse consumed %d of %d", off, len(digest))
	}
	if len(parsed) != 1 {
		t.Fatalf("digest entries = %d, want 1", len(parsed))
	}
	// dst's fingerprint for origin(0) differs (it holds a strict
	// subset), so the delta resends that origin in full alongside the
	// two origins dst has never seen: all 50 entries. The one
	// duplicate is rejected by the version comparison on Apply.
	delta, n, _ := src.AppendDelta(nil, parsed, 0, 0)
	if n != 50 {
		t.Fatalf("delta entries = %d, want 50", n)
	}
	for len(delta) > 0 {
		e, sz, err := DecodeEntry(delta)
		if err != nil {
			t.Fatalf("decode delta: %v", err)
		}
		delta = delta[sz:]
		dst.Apply(e)
	}
	if src.Stats().Checksum != dst.Stats().Checksum {
		t.Fatalf("stores diverge after delta")
	}
	// Converged stores have matching fingerprints: the next delta is
	// empty in both directions.
	parsed, _, err = ParseDigest(parsed[:0], dst.AppendDigest(nil))
	if err != nil {
		t.Fatalf("reparse digest: %v", err)
	}
	if _, n, _ := src.AppendDelta(nil, parsed, 0, 0); n != 0 {
		t.Fatalf("converged delta emitted %d entries", n)
	}
}

// TestDigestDeltaRepairsOutOfOrderHoles is the soak bug distilled:
// rumor pushes and key-sharded publishes deliver an origin's versions
// out of order, so one store can hold only the newest version while
// another holds only an older one. A max-version digest would make the
// newer store claim the whole prefix and the hole would never heal;
// the fingerprint digest must repair it in one exchange.
func TestDigestDeltaRepairsOutOfOrderHoles(t *testing.T) {
	clock := newTestClock()
	a := NewStore(clock, time.Hour)
	b := NewStore(clock, time.Hour)
	// Same origin, different keys: a saw only the newer update, b only
	// the older one.
	a.Apply(liveEntry("k-new", "o", 90, clock, time.Hour))
	b.Apply(liveEntry("k-old", "o", 10, clock, time.Hour))

	exchange := func(src, dst *Store) {
		parsed, _, err := ParseDigest(nil, dst.AppendDigest(nil))
		if err != nil {
			t.Fatalf("parse digest: %v", err)
		}
		delta, _, _ := src.AppendDelta(nil, parsed, 0, 0)
		for len(delta) > 0 {
			e, sz, err := DecodeEntry(delta)
			if err != nil {
				t.Fatalf("decode delta: %v", err)
			}
			delta = delta[sz:]
			dst.Apply(e)
		}
	}
	exchange(a, b)
	exchange(b, a)
	if a.Stats().Checksum != b.Stats().Checksum {
		t.Fatalf("out-of-order hole not repaired: %x vs %x", a.Stats().Checksum, b.Stats().Checksum)
	}
	for _, key := range []string{"k-new", "k-old"} {
		for name, s := range map[string]*Store{"a": a, "b": b} {
			if _, ok := s.Get(key); !ok {
				t.Errorf("store %s missing %s after reconcile", name, key)
			}
		}
	}
}

func TestAppendDeltaTruncates(t *testing.T) {
	clock := newTestClock()
	src := NewStore(clock, time.Hour)
	for i := 0; i < 20; i++ {
		src.Apply(liveEntry(key(i), "o", uint64(i+1), clock, time.Hour))
	}
	_, n, more := src.AppendDelta(nil, nil, 5, 0)
	if n != 5 || !more {
		t.Fatalf("truncated delta = %d entries more=%v, want 5 with more", n, more)
	}
}

func TestWireEntryRoundTrip(t *testing.T) {
	e := Entry{Key: "adv-1", Origin: "peer-a", Version: 42, Deleted: true, Expire: 1234567890}
	buf := AppendEntry(nil, &e)
	got, n, err := DecodeEntry(buf)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.Key != e.Key || got.Origin != e.Origin || got.Version != e.Version ||
		got.Deleted != e.Deleted || got.Expire != e.Expire || got.Payload != nil {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	// Every truncation must error, not panic or mis-parse.
	for i := 0; i < len(buf); i++ {
		if _, _, err := DecodeEntry(buf[:i]); err == nil {
			t.Fatalf("truncation at %d decoded", i)
		}
	}
}

func TestPublisherVersionsMonotone(t *testing.T) {
	clock := newTestClock()
	p := NewPublisher("me", clock)
	e1 := p.Entry("k", nil, time.Hour)
	e2 := p.Entry("k", nil, time.Hour) // clock hasn't moved: must still advance
	if e2.Version <= e1.Version {
		t.Fatalf("versions not monotone: %d then %d", e1.Version, e2.Version)
	}
	tomb := p.Tombstone("k")
	if tomb.Version <= e2.Version || !tomb.Deleted {
		t.Fatalf("tombstone version/flags: %+v", tomb)
	}
}

func key(i int) string    { return "key-" + string(rune('a'+i%26)) + "-" + itoa(i) }
func origin(i int) string { return "origin-" + itoa(i) }

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b [20]byte
	n := len(b)
	for i > 0 {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
	}
	return string(b[n:])
}
