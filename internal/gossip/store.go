package gossip

import (
	"math"
	"sort"
	"sync"
	"time"

	"whisper/internal/simnet"
)

// Store is one shard's replicated advertisement set: entries keyed by
// advertisement ID, plus a per-origin append-mostly log ordered by
// version that backs digest and delta extraction. All stores applying
// the same entries converge on the same state regardless of arrival
// order (version-vector conflict resolution), and all stores evict an
// entry at the same absolute deadline.
type Store struct {
	clock        simnet.Clock
	tombstoneTTL time.Duration
	// onApply observes every state change: live=true when the entry is
	// alive after the change, false when it died (tombstone, expiry,
	// GC). Invoked with the store lock held — the callback must not
	// call back into the Store.
	onApply func(e Entry, live bool)

	mu       sync.Mutex
	entries  map[string]*Entry
	logs     map[string]*originLog
	origins  []string // sorted keys of logs
	live     int
	checksum uint64
	// nextDeadline is the earliest pending expiry or tombstone-GC
	// instant; sweeps before it are free.
	nextDeadline int64
	stats        storeCounters
}

// originLog is one origin's current entries ordered by version, plus
// the fingerprint (count, sig) the anti-entropy digest advertises.
// Entries may arrive in any order — rumor pushes and sharded direct
// publishes deliver high versions first all the time — so no node can
// soundly claim a version watermark; the fingerprint only ever claims
// exactly what the log holds.
type originLog struct {
	entries []*Entry
	// sig is the XOR of entrySig over the current entries: two logs
	// holding the same set have equal (len, sig) fingerprints.
	sig uint64
}

type storeCounters struct {
	applied   uint64
	rejected  uint64
	expired   uint64
	collected uint64
}

// StoreStats snapshots a store.
type StoreStats struct {
	// Entries counts all records, tombstones included.
	Entries int
	// Live counts entries that are neither tombstoned nor past their
	// deadline sweep.
	Live int
	// Origins counts distinct publishing origins seen.
	Origins int
	// Applied and Rejected count Apply outcomes; Expired and Collected
	// count sweep evictions and tombstone GCs.
	Applied, Rejected, Expired, Collected uint64
	// Checksum is an order-independent digest of (key, origin,
	// version) over every record: two converged stores have equal
	// checksums.
	Checksum uint64
}

// NewStore creates a store. A nil clock selects the wall clock;
// tombstoneTTL <= 0 selects DefaultTombstoneTTL.
func NewStore(clock simnet.Clock, tombstoneTTL time.Duration) *Store {
	if clock == nil {
		clock = simnet.WallClock{}
	}
	if tombstoneTTL <= 0 {
		tombstoneTTL = DefaultTombstoneTTL
	}
	return &Store{
		clock:        clock,
		tombstoneTTL: tombstoneTTL,
		entries:      make(map[string]*Entry),
		logs:         make(map[string]*originLog),
		nextDeadline: math.MaxInt64,
	}
}

// OnApply installs the state-change observer (see the field doc).
// Must be set before the store receives traffic.
func (s *Store) OnApply(fn func(e Entry, live bool)) { s.onApply = fn }

// ApplyResult reports what Apply did.
type ApplyResult struct {
	// Applied is true when the entry superseded the stored state.
	Applied bool
	// New is true when the key was previously unknown.
	New bool
	// Live is true when the applied entry is alive (not a tombstone).
	Live bool
}

// Apply merges one entry. Entries already dead on arrival are applied
// as tombstones — their version still wins, which is exactly what
// blocks resurrection: a stale live copy pushed later loses the
// version comparison.
func (s *Store) Apply(e Entry) ApplyResult {
	now := s.clock.Now().UnixNano()
	if e.Expire <= now {
		e.Deleted = true
	}
	if e.Deleted {
		e.Payload = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.entries[e.Key]
	if cur != nil && !supersedes(&e, cur) {
		s.stats.rejected++
		return ApplyResult{}
	}
	ec := new(Entry)
	*ec = e
	if cur != nil {
		s.dropFromLog(cur)
		s.checksum ^= entrySig(cur)
		if !cur.Deleted {
			s.live--
		}
	}
	s.entries[e.Key] = ec
	s.pushToLog(ec)
	s.checksum ^= entrySig(ec)
	if !ec.Deleted {
		s.live++
		s.lowerDeadline(ec.Expire)
	} else {
		s.lowerDeadline(ec.Expire + int64(s.tombstoneTTL))
	}
	s.stats.applied++
	if s.onApply != nil {
		s.onApply(*ec, !ec.Deleted)
	}
	return ApplyResult{Applied: true, New: cur == nil, Live: !ec.Deleted}
}

// Get returns the stored record for key (tombstones included).
func (s *Store) Get(key string) (Entry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// SweepExpired converts entries past their deadline into local
// tombstones (no version bump: every store does the same conversion
// at the same absolute instant) and garbage-collects tombstones that
// outlived TombstoneTTL. Returns (expired, collected).
func (s *Store) SweepExpired() (int, int) {
	now := s.clock.Now().UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if now < s.nextDeadline {
		return 0, 0
	}
	next := int64(math.MaxInt64)
	expired, collected := 0, 0
	for key, e := range s.entries {
		if !e.Deleted && e.Expire <= now {
			e.Deleted = true
			e.Payload = nil
			s.live--
			s.stats.expired++
			expired++
			if s.onApply != nil {
				s.onApply(*e, false)
			}
		}
		if e.Deleted {
			gcAt := e.Expire + int64(s.tombstoneTTL)
			if gcAt <= now {
				s.dropFromLog(e)
				s.checksum ^= entrySig(e)
				delete(s.entries, key)
				s.stats.collected++
				collected++
				continue
			}
			if gcAt < next {
				next = gcAt
			}
			continue
		}
		if e.Expire < next {
			next = e.Expire
		}
	}
	s.nextDeadline = next
	return expired, collected
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries:   len(s.entries),
		Live:      s.live,
		Origins:   len(s.origins),
		Applied:   s.stats.applied,
		Rejected:  s.stats.rejected,
		Expired:   s.stats.expired,
		Collected: s.stats.collected,
		Checksum:  s.checksum,
	}
}

// entrySig hashes the replicated identity of a record. The Deleted
// flag is deliberately excluded: expiry conversion is a local,
// clock-synchronized transition and must not perturb convergence
// checks; explicit tombstones bump the version anyway.
func entrySig(e *Entry) uint64 {
	h := uint64(fnvOffset)
	h = hashString(h, e.Key)
	h ^= 0
	h *= fnvPrime
	h = hashString(h, e.Origin)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(e.Version >> (8 * i)))
		h *= fnvPrime
	}
	return h
}

// lowerDeadline pulls the next sweep deadline down. Callers hold s.mu.
func (s *Store) lowerDeadline(at int64) {
	if at < s.nextDeadline {
		s.nextDeadline = at
	}
}

// pushToLog appends e to its origin log. The common case — an origin's
// versions arrive in increasing order — is a straight append; out of
// order arrivals binary-insert. Callers hold s.mu.
func (s *Store) pushToLog(e *Entry) {
	lg := s.logs[e.Origin]
	if lg == nil {
		lg = &originLog{}
		s.logs[e.Origin] = lg
		i := sort.SearchStrings(s.origins, e.Origin)
		s.origins = append(s.origins, "")
		copy(s.origins[i+1:], s.origins[i:])
		s.origins[i] = e.Origin
	}
	lg.sig ^= entrySig(e)
	n := len(lg.entries)
	if n == 0 || lg.entries[n-1].Version <= e.Version {
		lg.entries = append(lg.entries, e)
		return
	}
	i := sort.Search(n, func(j int) bool { return lg.entries[j].Version >= e.Version })
	lg.entries = append(lg.entries, nil)
	copy(lg.entries[i+1:], lg.entries[i:])
	lg.entries[i] = e
}

// dropFromLog removes e from its origin log (the log survives even
// when emptied so converged empty fingerprints keep matching). Callers
// hold s.mu.
func (s *Store) dropFromLog(e *Entry) {
	lg := s.logs[e.Origin]
	if lg == nil {
		return
	}
	i := sort.Search(len(lg.entries), func(j int) bool { return lg.entries[j].Version >= e.Version })
	for ; i < len(lg.entries) && lg.entries[i].Version == e.Version; i++ {
		if lg.entries[i] == e {
			lg.entries = append(lg.entries[:i], lg.entries[i+1:]...)
			lg.sig ^= entrySig(e)
			return
		}
	}
}
