// Golden true-negative file for the gossip package, loaded under
// whisper/internal/gossip: seeded randomness, an injected clock,
// cancellable round loops and allocation-free hot paths (marked
// //lint:hotpath, as in the real package) must read clean under the
// whole analyzer suite — zero diagnostics.
package gossipclean

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

type Clock interface{ Now() time.Time }

// Ring is a consistent-hash ring; AppendOwners is a hot path, so
// allocbudget checks it stays allocation-free: it appends into the
// caller's buffer and never builds scratch state.
type Ring struct {
	points  []uint64
	members []string
	owner   []int
}

// HashTriple mixes the discovery key into a ring position — a hot
// path, pure arithmetic, zero allocations.
func HashTriple(advType, attr, value string) uint64 { //lint:hotpath
	h := uint64(1469598103934665603)
	for _, s := range []string{advType, attr, value} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
		h ^= 0xff
		h *= 1099511628211
	}
	return h
}

// AppendOwners appends the k distinct members owning the key to dst.
func (r *Ring) AppendOwners(dst []string, advType, attr, value string, k int) []string { //lint:hotpath
	if len(r.points) == 0 {
		return dst
	}
	h := HashTriple(advType, attr, value)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	start := len(dst)
	for i := 0; i < len(r.points) && len(dst)-start < k; i++ {
		m := r.members[r.owner[(lo+i)%len(r.points)]]
		dup := false
		for _, seen := range dst[start:] {
			if seen == m {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, m)
		}
	}
	return dst
}

// Owner returns the first owner of the key (rostered).
func (r *Ring) Owner(advType, attr, value string) string { //lint:hotpath
	if len(r.points) == 0 {
		return ""
	}
	h := HashTriple(advType, attr, value)
	lo, hi := 0, len(r.points)
	for lo < hi {
		mid := (lo + hi) / 2
		if r.points[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return r.members[r.owner[lo%len(r.points)]]
}

// Store mirrors the anti-entropy wire helpers on the roster: every
// encoder appends into the caller's buffer, every decoder appends into
// the caller's scratch slice.
type Store struct {
	origins []string
	counts  []uint64
	sigs    []uint64
}

type DigestEntry struct {
	Origin []byte
	Count  uint64
	Sig    uint64
}

// AppendDigest encodes the per-origin fingerprints into dst (rostered:
// steady-state reconciliation must not allocate).
func (s *Store) AppendDigest(dst []byte) []byte { //lint:hotpath
	for i := range s.origins {
		dst = append(dst, byte(len(s.origins[i])))
		dst = append(dst, s.origins[i]...)
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(s.counts[i]>>shift))
		}
		for shift := 0; shift < 64; shift += 8 {
			dst = append(dst, byte(s.sigs[i]>>shift))
		}
	}
	return dst
}

// ParseDigest decodes fingerprints into the caller's scratch slice
// (rostered).
func ParseDigest(dst []DigestEntry, b []byte) []DigestEntry { //lint:hotpath
	for len(b) > 0 {
		n := int(b[0])
		if 1+n+16 > len(b) {
			return dst
		}
		// The origin stays a subslice of the frame — converting to
		// string here would allocate per origin per reconciliation.
		e := DigestEntry{Origin: b[1 : 1+n]}
		b = b[1+n:]
		for shift := 0; shift < 64; shift += 8 {
			e.Count |= uint64(b[0]) << shift
			b = b[1:]
		}
		for shift := 0; shift < 64; shift += 8 {
			e.Sig |= uint64(b[0]) << shift
			b = b[1:]
		}
		dst = append(dst, e)
	}
	return dst
}

// AppendDelta emits the origins whose fingerprint differs from the
// peer's claim (rostered): a merge-join over two sorted lists, no
// scratch maps.
func (s *Store) AppendDelta(dst []byte, peer []DigestEntry) []byte { //lint:hotpath
	j := 0
	for i := range s.origins {
		for j < len(peer) && lessBytesString(peer[j].Origin, s.origins[i]) {
			j++
		}
		if j < len(peer) && eqBytesString(peer[j].Origin, s.origins[i]) &&
			peer[j].Count == s.counts[i] && peer[j].Sig == s.sigs[i] {
			continue
		}
		dst = append(dst, byte(len(s.origins[i])))
		dst = append(dst, s.origins[i]...)
	}
	return dst
}

// lessBytesString / eqBytesString compare a frame subslice against a
// stored origin without converting either side.
func lessBytesString(b []byte, s string) bool {
	for i := 0; i < len(b) && i < len(s); i++ {
		if b[i] != s[i] {
			return b[i] < s[i]
		}
	}
	return len(b) < len(s)
}

func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := range b {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}

// engine shows the sanctioned loop idioms: a seeded rand.Rand for
// jitter, the injected clock for time, and rounds that stop on the
// lifecycle channel — never an unconditional sleep, never a detached
// root context.
type engine struct {
	mu     sync.Mutex
	rng    *rand.Rand
	clock  Clock
	stopCh chan struct{}
	rounds int
}

func newEngine(seed int64, clock Clock) *engine {
	return &engine{
		rng:    rand.New(rand.NewSource(seed)),
		clock:  clock,
		stopCh: make(chan struct{}),
	}
}

func (e *engine) jittered(d time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return d + time.Duration(e.rng.Int63n(int64(d)/2+1)) - d/4
}

// loop paces rounds with a timer and exits on the stop channel, so
// every wait is cancellable.
func (e *engine) loop(ctx context.Context, interval time.Duration, round func(context.Context) error) {
	t := time.NewTimer(e.jittered(interval))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.exchange(ctx, round)
			t.Reset(e.jittered(interval))
		case <-e.stopCh:
			return
		case <-ctx.Done():
			return
		}
	}
}

// exchange derives its deadline from the caller's context — library
// code never mints context.Background().
func (e *engine) exchange(ctx context.Context, round func(context.Context) error) {
	callCtx, cancel := context.WithTimeout(ctx, 500*time.Millisecond)
	defer cancel()
	if err := round(callCtx); err != nil {
		return
	}
	e.mu.Lock()
	e.rounds++
	e.mu.Unlock()
}

func (e *engine) stop() { close(e.stopCh) }
