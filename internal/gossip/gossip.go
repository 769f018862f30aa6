// Package gossip implements Whisper's epidemic advertisement
// dissemination: rumor mongering for fresh advertisements plus
// periodic status-digest reconciliation (anti-entropy) between shard
// pairs, in the style of Demers et al. and the Scuttlebutt protocol.
//
// The discovery layer of the paper relies on a single rendezvous peer
// and flood-republish of semantic advertisements — quadratic in shards
// once the rendezvous index is partitioned. This package bounds the
// dissemination cost: a fresh advertisement is pushed as a rumor to a
// small random fanout each round (and retired once enough recipients
// already knew it), while a background digest exchange repairs
// anything the rumor phase missed, so every shard converges on the
// full advertisement set in O(log n) rounds with batched, constant-ish
// message overhead.
//
// Consistency model:
//
//   - Every entry is owned by a single origin (the publishing b-peer):
//     only the origin ever writes new versions of its keys, so a
//     per-origin monotone version totally orders each entry's history.
//     Anti-entropy digests fingerprint each origin's current entry set
//     (count + order-independent checksum, see digest.go) rather than
//     claiming a version watermark — entries arrive out of order, so
//     watermark claims would hide missing prefixes forever.
//   - Versions are seeded from the injected clock (max(prev+1, nanos)),
//     so an origin that restarts cannot regress below its own history.
//   - Expiry travels with the entry as an absolute deadline: every
//     store evicts deterministically at Expire and rejects entries
//     that are already dead on arrival, so an expired advertisement
//     cannot resurrect from a stale replica — a newer version from the
//     origin is the only way back.
//   - Explicit unpublish is a tombstone (Deleted, version bumped),
//     garbage-collected TombstoneTTL after its deadline.
//
// The package is deterministic under test: randomness comes from a
// seeded rand.Rand, time from an injected simnet.Clock (the detrand
// analyzer enforces both, see internal/analysis), and every loop delay
// selects on the engine's stop channel.
package gossip

import (
	"sync"
	"time"

	"whisper/internal/simnet"
)

// Entry is one replicated advertisement record. The zero Key is
// invalid.
type Entry struct {
	// Key identifies the advertisement (its AdvID).
	Key string
	// Origin is the stable name of the publishing peer. Only the
	// origin issues new versions of its keys.
	Origin string
	// Version orders an origin's writes to a key; higher wins.
	Version uint64
	// Deleted marks a tombstone (explicit unpublish or expiry).
	Deleted bool
	// Expire is the absolute death time in Unix nanoseconds. It
	// travels with the entry so every store evicts at the same
	// instant. For a tombstone it anchors garbage collection
	// (Expire + TombstoneTTL).
	Expire int64
	// Payload is the marshalled advertisement document; nil on
	// tombstones.
	Payload []byte
}

// DefaultTombstoneTTL is how long a tombstone outlives its deadline
// before garbage collection. It must comfortably exceed the maximum
// replication lag so a GC'd tombstone cannot let an older live copy
// sneak back in.
const DefaultTombstoneTTL = 10 * time.Minute

// supersedes reports whether a should replace b. Versions dominate;
// ties (which only happen when distinct origins claim one key) break
// deterministically so all stores settle on one winner: tombstones
// beat live entries, then the lexicographically larger origin wins.
func supersedes(a, b *Entry) bool {
	if a.Version != b.Version {
		return a.Version > b.Version
	}
	if a.Deleted != b.Deleted {
		return a.Deleted
	}
	return a.Origin > b.Origin
}

// Publisher mints versioned entries for one origin. Versions are
// clock-seeded monotone counters: an origin that restarts and loses
// its counter still publishes versions above everything it issued
// before.
type Publisher struct {
	origin string
	clock  simnet.Clock

	mu   sync.Mutex
	last uint64
}

// NewPublisher creates a publisher for the origin; a nil clock selects
// the wall clock.
func NewPublisher(origin string, clock simnet.Clock) *Publisher {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	return &Publisher{origin: origin, clock: clock}
}

// Origin returns the publisher's origin name.
func (p *Publisher) Origin() string { return p.origin }

// next returns a fresh version: the clock in nanoseconds, bumped past
// the previous issue when the clock hasn't advanced.
func (p *Publisher) next() uint64 {
	v := uint64(p.clock.Now().UnixNano())
	p.mu.Lock()
	if v <= p.last {
		v = p.last + 1
	}
	p.last = v
	p.mu.Unlock()
	return v
}

// Entry mints a live entry for key with the given payload and
// lifetime.
func (p *Publisher) Entry(key string, payload []byte, lifetime time.Duration) Entry {
	return Entry{
		Key:     key,
		Origin:  p.origin,
		Version: p.next(),
		Expire:  p.clock.Now().Add(lifetime).UnixNano(),
		Payload: payload,
	}
}

// Tombstone mints an unpublish record for key: it supersedes every
// prior version and is garbage-collected TombstoneTTL after now.
func (p *Publisher) Tombstone(key string) Entry {
	return Entry{
		Key:     key,
		Origin:  p.origin,
		Version: p.next(),
		Deleted: true,
		Expire:  p.clock.Now().UnixNano(),
	}
}
