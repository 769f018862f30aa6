// Package replog implements a per-group replicated operation journal
// giving exactly-once, in-order execution of non-idempotent operations
// across crash, re-bind and retry.
//
// The group coordinator assigns monotone sequence numbers to keyed
// requests, replicates journal entries (idempotency key, operation,
// payload digest, cached reply) to the follower replicas over a
// dedicated pipe before acknowledging the client, and dedupes retried
// requests by idempotency key — returning the cached reply instead of
// re-executing the business operation. The journal compacts committed
// entries into a snapshot, and state-transfers its contents to peers
// rejoining after a crash; a newly elected coordinator catches up to
// the highest committed sequence before serving (see the election
// barrier in internal/bpeer).
//
// The journal deliberately is not a full replicated state machine:
// followers never execute operations, they only store the coordinator's
// outcome so that any of them can answer a retry authoritatively after
// failover. That is exactly the property the WS-FTM-style client-retry
// baseline (internal/baseline) lacks.
package replog

import (
	"fmt"
	"sort"
	"sync"

	"whisper/internal/metrics"
)

// Status is the lifecycle state of a journal entry. The numeric values
// are merge priorities: when two replicas disagree about an entry
// during state transfer, the higher status wins (it embeds strictly
// more knowledge about the operation's outcome).
type Status int

const (
	// StatusPrepared: the coordinator claimed the key and assigned a
	// sequence number, but execution has not begun. Safe to abort.
	StatusPrepared Status = 1
	// StatusExecuting: the handler was started; the outcome is unknown
	// until it finishes. Observing this after a restart means the
	// coordinator crashed mid-execution — the entry is poisoned.
	StatusExecuting Status = 2
	// StatusAborted: the origin proved the operation never executed;
	// the key may be re-owned and executed by another coordinator.
	StatusAborted Status = 3
	// StatusPoisoned: the outcome is permanently unknown (crash during
	// execution). The operation is never re-executed; retries receive
	// a retryable "outcome unknown" error forever.
	StatusPoisoned Status = 4
	// StatusExecuted: the handler finished and the reply (or
	// application error) is recorded locally, not yet replicated.
	StatusExecuted Status = 5
	// StatusCommitted: the reply is replicated to the followers; the
	// entry is immutable and eligible for snapshot compaction.
	StatusCommitted Status = 6
)

func (s Status) String() string {
	switch s {
	case StatusPrepared:
		return "prepared"
	case StatusExecuting:
		return "executing"
	case StatusAborted:
		return "aborted"
	case StatusPoisoned:
		return "poisoned"
	case StatusExecuted:
		return "executed"
	case StatusCommitted:
		return "committed"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Entry is one journaled operation. It is the unit of replication and
// state transfer (wire form: AppendEntry).
type Entry struct {
	Seq        uint64
	Key        string
	Op         string
	Digest     string
	Origin     string
	OriginAddr string
	Status     Status
	AppErr     string
	Reply      []byte
}

// cachedReply is the compacted remnant of a committed entry.
type cachedReply struct {
	Seq    uint64
	Digest string
	AppErr string
	Reply  []byte
}

// Decision classifies a Begin call.
type Decision int

const (
	// BeginNew: the key is unclaimed (or re-owned after an abort);
	// the caller must execute the operation.
	BeginNew Decision = iota
	// BeginCached: the operation already executed; the cached reply
	// (or recorded application error) is authoritative.
	BeginCached
	// BeginConflict: the key exists with a different payload digest —
	// an application error, never retried.
	BeginConflict
	// BeginPending: another coordinator holds the key in Prepared
	// state; the caller must resolve the outcome with the origin
	// before executing.
	BeginPending
	// BeginPoisoned: the outcome is permanently unknown; the caller
	// must return a retryable infrastructure error without executing.
	BeginPoisoned
)

// BeginResult reports the dedup decision for a keyed request.
type BeginResult struct {
	Decision Decision
	Seq      uint64
	Reply    []byte
	AppErr   string
	// Origin/OriginAddr identify the preparing coordinator when
	// Decision == BeginPending.
	Origin     string
	OriginAddr string
}

// Journal is the per-replica operation journal. All methods are safe
// for concurrent use. The zero value is not usable; use New.
//
// The journal is owned by a b-peer for the lifetime of the process —
// it survives Crash/Restart cycles (modelling a disk-backed log), which
// is what makes post-restart state transfer meaningful.
type Journal struct {
	mu      sync.Mutex
	owner   string // replica name, used as Origin for entries it prepares
	addr    string // replica transport address, stored for remote resolution
	entries map[string]*Entry
	nextSeq uint64

	// snapshot state: committed entries at seq <= snapUpTo are folded
	// into snapKeys and removed from entries.
	snapUpTo uint64
	snapKeys map[string]cachedReply

	compactAt int
	counters  *metrics.Counter

	// commitCh is closed and replaced whenever the committed prefix
	// advances; WaitCommitted blocks on it (see readindex.go).
	commitCh chan struct{}
}

// DefaultCompactionThreshold is the live-entry count at which
// MarkCommitted folds committed entries into the snapshot.
const DefaultCompactionThreshold = 256

// New creates an empty journal owned by the named replica.
func New(owner, addr string) *Journal {
	return &Journal{
		owner:     owner,
		addr:      addr,
		entries:   make(map[string]*Entry),
		snapKeys:  make(map[string]cachedReply),
		compactAt: DefaultCompactionThreshold,
		counters:  metrics.NewCounter(),
		commitCh:  make(chan struct{}),
	}
}

// SetCompactionThreshold overrides the live-entry count that triggers
// snapshot compaction. Values < 1 disable compaction.
func (j *Journal) SetCompactionThreshold(n int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.compactAt = n
}

// Counters exposes the journal's operation counters (begin.new,
// begin.cached, commit, abort, poison, compact, merge.applied …).
func (j *Journal) Counters() *metrics.Counter { return j.counters }

// Begin claims the idempotency key for execution, or reports why the
// operation must not (or need not) run. digest is the canonical hash of
// the request payload (see Digest).
func (j *Journal) Begin(key, op, digest string) BeginResult {
	j.mu.Lock()
	defer j.mu.Unlock()

	if c, ok := j.snapKeys[key]; ok {
		if c.Digest != digest {
			j.counters.Add("begin.conflict", 1)
			return BeginResult{Decision: BeginConflict, Seq: c.Seq}
		}
		j.counters.Add("begin.cached", 1)
		return BeginResult{Decision: BeginCached, Seq: c.Seq, Reply: c.Reply, AppErr: c.AppErr}
	}
	e, ok := j.entries[key]
	if !ok {
		j.nextSeq++
		j.entries[key] = &Entry{
			Seq: j.nextSeq, Key: key, Op: op, Digest: digest,
			Origin: j.owner, OriginAddr: j.addr, Status: StatusPrepared,
		}
		j.counters.Add("begin.new", 1)
		return BeginResult{Decision: BeginNew, Seq: j.nextSeq}
	}
	if e.Digest != digest {
		j.counters.Add("begin.conflict", 1)
		return BeginResult{Decision: BeginConflict, Seq: e.Seq}
	}
	switch e.Status {
	case StatusExecuted, StatusCommitted:
		j.counters.Add("begin.cached", 1)
		return BeginResult{Decision: BeginCached, Seq: e.Seq, Reply: e.Reply, AppErr: e.AppErr}
	case StatusPoisoned:
		j.counters.Add("begin.poisoned", 1)
		return BeginResult{Decision: BeginPoisoned, Seq: e.Seq}
	case StatusExecuting:
		// The serve loop is single-goroutine, so a live Executing entry
		// cannot be observed by a new Begin on the same replica; seeing
		// one means a crash interrupted the handler. The outcome is
		// unknowable — poison the entry.
		e.Status = StatusPoisoned
		j.counters.Add("poison", 1)
		return BeginResult{Decision: BeginPoisoned, Seq: e.Seq}
	case StatusAborted:
		// Aborted proves the operation never executed; re-own it.
		e.Status = StatusPrepared
		e.Origin = j.owner
		e.OriginAddr = j.addr
		j.counters.Add("begin.reown", 1)
		return BeginResult{Decision: BeginNew, Seq: e.Seq}
	case StatusPrepared:
		if e.Origin == j.owner {
			// Our own claim (e.g. a replicated PREPARE raced the
			// client retry): resume it.
			j.counters.Add("begin.resume", 1)
			return BeginResult{Decision: BeginNew, Seq: e.Seq}
		}
		j.counters.Add("begin.pending", 1)
		return BeginResult{Decision: BeginPending, Seq: e.Seq, Origin: e.Origin, OriginAddr: e.OriginAddr}
	default:
		j.counters.Add("begin.poisoned", 1)
		return BeginResult{Decision: BeginPoisoned, Seq: e.Seq}
	}
}

// CachedReply returns the recorded outcome for an executed or
// committed key, checking live entries and the snapshot.
func (j *Journal) CachedReply(key string) (reply []byte, appErr string, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, found := j.snapKeys[key]; found {
		return c.Reply, c.AppErr, true
	}
	if e, found := j.entries[key]; found && (e.Status == StatusExecuted || e.Status == StatusCommitted) {
		return e.Reply, e.AppErr, true
	}
	return nil, "", false
}

// Entry returns a copy of the entry for key, if present.
func (j *Journal) Entry(key string) (Entry, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// MarkExecuting transitions a Prepared entry (owned by this replica)
// to Executing. It fails if the entry was aborted or taken over in the
// meantime — the caller must not run the handler in that case. This is
// the local half of the deposed-coordinator race: exactly one of
// MarkExecuting and Resolve wins under the journal mutex.
func (j *Journal) MarkExecuting(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return fmt.Errorf("replog: no entry for key %q", key)
	}
	if e.Status != StatusPrepared || e.Origin != j.owner {
		return fmt.Errorf("replog: key %q is %s (origin %s), not prepared here", key, e.Status, e.Origin)
	}
	e.Status = StatusExecuting
	return nil
}

// MarkExecuted records the handler outcome (reply bytes or an
// application error string) for an Executing entry.
func (j *Journal) MarkExecuted(key string, reply []byte, appErr string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return fmt.Errorf("replog: no entry for key %q", key)
	}
	if e.Status != StatusExecuting {
		return fmt.Errorf("replog: key %q is %s, not executing", key, e.Status)
	}
	e.Status = StatusExecuted
	e.Reply = reply
	e.AppErr = appErr
	return nil
}

// MarkCommitted finalises an Executed entry after successful
// replication and triggers compaction when the live set grows past the
// threshold.
func (j *Journal) MarkCommitted(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return fmt.Errorf("replog: no entry for key %q", key)
	}
	if e.Status != StatusExecuted && e.Status != StatusCommitted {
		return fmt.Errorf("replog: key %q is %s, not executed", key, e.Status)
	}
	e.Status = StatusCommitted
	j.counters.Add("commit", 1)
	j.notifyCommitLocked()
	j.maybeCompactLocked()
	return nil
}

// MarkAborted abandons a Prepared or Executing claim whose operation
// provably did not execute (fail-stop backend contract). The key
// becomes re-ownable by any coordinator.
func (j *Journal) MarkAborted(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return fmt.Errorf("replog: no entry for key %q", key)
	}
	if e.Status == StatusExecuted || e.Status == StatusCommitted || e.Status == StatusPoisoned {
		return fmt.Errorf("replog: key %q is %s, cannot abort", key, e.Status)
	}
	e.Status = StatusAborted
	j.counters.Add("abort", 1)
	return nil
}

// MarkPoisoned permanently marks the entry's outcome unknown.
func (j *Journal) MarkPoisoned(key string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return
	}
	if e.Status == StatusExecuted || e.Status == StatusCommitted {
		return
	}
	if e.Status != StatusPoisoned {
		e.Status = StatusPoisoned
		j.counters.Add("poison", 1)
	}
}

// Resolve answers a remote coordinator asking about a key this replica
// prepared. If the entry is still Prepared it is atomically aborted —
// this replica has provably not started executing it, and the abort
// guarantees it never will (MarkExecuting refuses non-Prepared
// entries). Returns the resulting status.
func (j *Journal) Resolve(key string) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.snapKeys[key]; ok {
		return StatusCommitted
	}
	e, ok := j.entries[key]
	if !ok {
		// Unknown key: nothing was executed here. Report aborted so
		// the asker may own it.
		return StatusAborted
	}
	if e.Status == StatusPrepared {
		e.Status = StatusAborted
		j.counters.Add("abort", 1)
	}
	return e.Status
}

// Reown re-claims an Aborted entry for this replica after remote
// resolution, returning it to Prepared under the local owner.
func (j *Journal) Reown(key string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return fmt.Errorf("replog: no entry for key %q", key)
	}
	if e.Status != StatusAborted && e.Status != StatusPrepared {
		return fmt.Errorf("replog: key %q is %s, cannot re-own", key, e.Status)
	}
	e.Status = StatusPrepared
	e.Origin = j.owner
	e.OriginAddr = j.addr
	j.counters.Add("begin.reown", 1)
	return nil
}

// AdoptReply installs a remotely resolved outcome (the origin executed
// the operation) so future retries hit the local cache.
func (j *Journal) AdoptReply(key string, reply []byte, appErr string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[key]
	if !ok {
		return
	}
	if e.Status == StatusCommitted {
		return
	}
	e.Status = StatusCommitted
	e.Reply = reply
	e.AppErr = appErr
	j.counters.Add("merge.adopted", 1)
	j.notifyCommitLocked()
	j.maybeCompactLocked()
}

// ApplyPrepare applies a replicated PREPARE from the coordinator. A
// replicated claim overwrites a local Prepared/Aborted entry and adopts
// the new origin: the coordinator is asserting ownership (possibly a
// re-own after an abort).
func (j *Journal) ApplyPrepare(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur, ok := j.entries[e.Key]
	if ok && cur.Status != StatusPrepared && cur.Status != StatusAborted {
		// We know more than the sender (executed/poisoned); keep ours.
		return
	}
	prep := e
	prep.Status = StatusPrepared
	prep.Reply = nil
	prep.AppErr = ""
	j.entries[e.Key] = &prep
	if e.Seq > j.nextSeq {
		j.nextSeq = e.Seq
	}
	j.counters.Add("apply.prepare", 1)
}

// ApplyCommit applies a replicated COMMIT (reply included) from the
// coordinator.
func (j *Journal) ApplyCommit(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	com := e
	com.Status = StatusCommitted
	j.entries[e.Key] = &com
	if e.Seq > j.nextSeq {
		j.nextSeq = e.Seq
	}
	j.counters.Add("apply.commit", 1)
	j.notifyCommitLocked()
	j.maybeCompactLocked()
}

// ApplyAbort applies a replicated ABORT from the (failing-over)
// coordinator: the operation provably never executed there.
func (j *Journal) ApplyAbort(e Entry) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cur, ok := j.entries[e.Key]
	if ok && cur.Status != StatusPrepared && cur.Status != StatusExecuting && cur.Status != StatusAborted {
		return
	}
	ab := e
	ab.Status = StatusAborted
	j.entries[e.Key] = &ab
	if e.Seq > j.nextSeq {
		j.nextSeq = e.Seq
	}
	j.counters.Add("apply.abort", 1)
}

// maybeCompactLocked folds committed entries into the snapshot when the
// live set exceeds the threshold. Caller holds j.mu.
func (j *Journal) maybeCompactLocked() {
	if j.compactAt < 1 || len(j.entries) < j.compactAt {
		return
	}
	for k, e := range j.entries {
		if e.Status != StatusCommitted {
			continue
		}
		j.snapKeys[k] = cachedReply{Seq: e.Seq, Digest: e.Digest, AppErr: e.AppErr, Reply: e.Reply}
		if e.Seq > j.snapUpTo {
			j.snapUpTo = e.Seq
		}
		delete(j.entries, k)
	}
	j.counters.Add("compact", 1)
}

// HighestCommitted returns the highest sequence number known committed
// (live or snapshotted).
func (j *Journal) HighestCommitted() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.highestCommittedLocked()
}

// Stats summarises the journal for operator tooling.
type Stats struct {
	NextSeq          uint64
	HighestCommitted uint64
	Live             int
	Snapshotted      int
	SnapshotUpTo     uint64
	ByStatus         map[string]int
}

// Stats returns a point-in-time summary.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Stats{
		NextSeq:      j.nextSeq,
		Live:         len(j.entries),
		Snapshotted:  len(j.snapKeys),
		SnapshotUpTo: j.snapUpTo,
		ByStatus:     make(map[string]int),
	}
	hi := j.snapUpTo
	for _, e := range j.entries {
		st.ByStatus[e.Status.String()]++
		if e.Status == StatusCommitted && e.Seq > hi {
			hi = e.Seq
		}
	}
	st.HighestCommitted = hi
	return st
}

// StatusLines renders a sorted human-readable dump for peerctl.
func (j *Journal) StatusLines() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	lines := make([]string, 0, len(j.entries))
	for _, e := range j.entries {
		lines = append(lines, fmt.Sprintf("seq=%d key=%s op=%s status=%s origin=%s", e.Seq, e.Key, e.Op, e.Status, e.Origin))
	}
	sort.Strings(lines)
	return lines
}
