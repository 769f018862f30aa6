package gossip

import (
	"encoding/binary"
	"fmt"

	"whisper/internal/wire"
)

// The anti-entropy digest is a per-origin fingerprint: for every
// origin the store has ever seen, the current entry count and an
// order-independent checksum over (key, origin, version). Two stores
// holding the same entry set for an origin have equal fingerprints and
// reconciliation skips the origin entirely — the steady-state cost is
// O(origins), never O(entries).
//
// A fingerprint digest is deliberately weaker than the Scuttlebutt
// max-version vector: it never claims a version prefix. Claims like
// "I hold everything up to version V" are unsound here, because
// entries reach a store out of order — rumor pushes and key-sharded
// direct publishes routinely deliver an origin's newest version to a
// node that has none of the older ones, and a node that then advertised
// max=V would hide the missing prefix from every future reconciliation
// (a permanent hole). The fingerprint only asserts what the store
// actually holds; when two fingerprints differ the responder sends the
// origin's full current entry set (version-ascending, capped at
// MaxDelta per frame, resumed across frames by a rotating cursor) and
// duplicate entries are rejected by the version comparison on Apply.
// Convergence of a badly diverged pair takes ceil(diff/MaxDelta)
// rounds; a converged pair costs nothing.
//
// Digest and delta encoding run once per reconciliation round per
// shard pair, on stores holding up to hundreds of thousands of
// entries, so both are on the allocbudget hot-path roster: they append
// into caller-owned buffers and allocate nothing themselves.

// DigestEntry is one parsed digest element. Origin aliases the frame
// it was parsed from.
type DigestEntry struct {
	Origin []byte
	// Count and Sig fingerprint the origin's current entry set.
	Count uint64
	Sig   uint64
}

// AppendDigest encodes the store's digest onto dst, origins in sorted
// order, and returns the extended slice.
func (s *Store) AppendDigest(dst []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	dst = binary.AppendUvarint(dst, uint64(len(s.origins)))
	for _, o := range s.origins {
		lg := s.logs[o]
		dst = binary.AppendUvarint(dst, uint64(len(o)))
		dst = append(dst, o...)
		dst = binary.AppendUvarint(dst, uint64(len(lg.entries)))
		dst = binary.LittleEndian.AppendUint64(dst, lg.sig)
	}
	return dst
}

// ParseDigest decodes a digest frame, appending its entries onto dst,
// and returns the extended slice and the bytes consumed. Entries
// alias b.
func ParseDigest(dst []DigestEntry, b []byte) ([]DigestEntry, int, error) {
	r := wire.NewReader(b)
	// A forged count ends the loop when the bytes run out.
	for n := r.Uvarint(); n > 0 && !r.Bad(); n-- {
		origin, count, sig := r.Bytes(), r.Uvarint(), r.Take(8)
		if r.Bad() {
			break
		}
		dst = append(dst, DigestEntry{Origin: origin, Count: count, Sig: binary.LittleEndian.Uint64(sig)})
	}
	if r.Bad() {
		return dst, 0, fmt.Errorf("gossip: digest: %w", wire.ErrMalformed)
	}
	return dst, len(b) - r.Len(), nil
}

// AppendDelta encodes onto dst the current entry set of every origin
// whose fingerprint differs from the peer's digest (origins the peer
// matches are skipped; origins only the peer knows are its job to send
// on the other leg), version-ascending per origin, up to maxEntries
// (<= 0 for unlimited). skip drops that many leading entries of the
// differing sequence before emitting — the resume cursor for a delta
// that was truncated last round. It returns the extended slice, the
// entry count, and whether entries remained beyond the window.
//
// The cursor is what makes truncation sound. Without it, a pair
// diverged by more than maxEntries livelocks: every round resends the
// same leading window, the receiver rejects it all as duplicates, and
// the tail never ships. With it, successive truncated frames cover
// disjoint windows; when the sequence is exhausted (more == false) the
// caller resets to zero, so any entries the shifting sequence skipped
// are covered on the next pass. peer must be ordered by origin, which
// parsed digests are (AppendDigest emits sorted origins).
func (s *Store) AppendDelta(dst []byte, peer []DigestEntry, maxEntries, skip int) ([]byte, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	j := 0
	for _, o := range s.origins {
		for j < len(peer) && lessBytesString(peer[j].Origin, o) {
			j++
		}
		lg := s.logs[o]
		if j < len(peer) && eqBytesString(peer[j].Origin, o) &&
			peer[j].Count == uint64(len(lg.entries)) && peer[j].Sig == lg.sig {
			continue
		}
		if skip >= len(lg.entries) {
			skip -= len(lg.entries)
			continue
		}
		for _, e := range lg.entries[skip:] {
			if maxEntries > 0 && n >= maxEntries {
				return dst, n, true
			}
			dst = AppendEntry(dst, e)
			n++
		}
		skip = 0
	}
	return dst, n, false
}

// lessBytesString reports b < s without converting either.
func lessBytesString(b []byte, s string) bool {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			return b[i] < s[i]
		}
	}
	return len(b) < len(s)
}

// eqBytesString reports b == s without converting either.
func eqBytesString(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
