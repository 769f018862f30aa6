package replog

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"whisper/internal/wire"
)

// journalState is a journal's state-transfer snapshot (election catch-up
// and post-restart rejoin).
type journalState struct {
	NextSeq uint64
	UpTo    uint64
	Cached  []cachedItem
	Entries []Entry
}

type cachedItem struct {
	Key string
	cachedReply
}

// Smallest wire forms: every field of an empty entry or cached item
// still spends its length or value byte.
const (
	minEntrySize  = 9
	minCachedSize = 5
)

// AppendEntry appends e's wire form (layout: DESIGN.md §5): sequence,
// key, operation, digest, origin, origin address, status, application
// error and reply.
func AppendEntry(dst []byte, e *Entry) []byte {
	dst = wire.AppendUvarint(dst, e.Seq)
	for _, s := range [...]string{e.Key, e.Op, e.Digest, e.Origin, e.OriginAddr} {
		dst = wire.AppendString(dst, s)
	}
	dst = wire.AppendUvarint(dst, uint64(e.Status))
	return wire.AppendBytes(wire.AppendString(dst, e.AppErr), e.Reply)
}

// EntrySize bounds the length of e's wire form.
func EntrySize(e *Entry) int {
	return 9*binary.MaxVarintLen64 + len(e.Key) + len(e.Op) + len(e.Digest) + len(e.Origin) +
		len(e.OriginAddr) + len(e.AppErr) + len(e.Reply)
}

// ReadEntry reads an entry written by AppendEntry. Its strings and reply
// are copies; an empty reply reads as nil.
func ReadEntry(r *wire.Reader) Entry {
	e := Entry{Seq: r.Uvarint(), Key: r.Str(), Op: r.Str(), Digest: r.Str(), Origin: r.Str(), OriginAddr: r.Str()}
	e.Status = ReadStatus(r)
	e.AppErr = r.Str()
	e.Reply = ReadReply(r)
	return e
}

// ReadStatus reads a status; one outside the entry lifecycle poisons r.
func ReadStatus(r *wire.Reader) Status {
	s := r.Uvarint()
	if s < uint64(StatusPrepared) || s > uint64(StatusCommitted) {
		r.Fail()
		return 0
	}
	return Status(s)
}

// ReadReply reads a length-prefixed reply as a copy, nil when empty.
func ReadReply(r *wire.Reader) []byte {
	if b := r.Bytes(); len(b) > 0 {
		return bytes.Clone(b)
	}
	return nil
}

// EncodeState serialises the full journal (snapshot + live entries) for
// transfer to a catching-up peer: the next sequence number, the
// compaction mark, the compacted replies and the live entries. The
// journal is copied under its lock and encoded after it is released, so
// a catch-up does not hold up Begin and Apply for the encode.
func (j *Journal) EncodeState() ([]byte, error) {
	st := j.snapshotState()
	return st.encode(), nil
}

func (st *journalState) encode() []byte {
	size := 4 * binary.MaxVarintLen64
	for i := range st.Cached {
		c := &st.Cached[i]
		size += 5*binary.MaxVarintLen64 + len(c.Key) + len(c.Digest) + len(c.AppErr) + len(c.Reply)
	}
	for i := range st.Entries {
		size += EntrySize(&st.Entries[i])
	}
	out := wire.AppendUvarint(wire.AppendUvarint(make([]byte, 0, size), st.NextSeq), st.UpTo)
	out = wire.AppendUvarint(out, uint64(len(st.Cached)))
	for i := range st.Cached {
		c := &st.Cached[i]
		out = wire.AppendUvarint(wire.AppendString(out, c.Key), c.Seq)
		out = wire.AppendBytes(wire.AppendString(wire.AppendString(out, c.Digest), c.AppErr), c.Reply)
	}
	out = wire.AppendUvarint(out, uint64(len(st.Entries)))
	for i := range st.Entries {
		out = AppendEntry(out, &st.Entries[i])
	}
	return out
}

// snapshotState copies the journal's transferable state. Entries are
// immutable once copied out: every transition replaces a field, none
// writes into a reply.
func (j *Journal) snapshotState() journalState {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := journalState{
		NextSeq: j.nextSeq,
		UpTo:    j.snapUpTo,
		Cached:  make([]cachedItem, 0, len(j.snapKeys)),
		Entries: make([]Entry, 0, len(j.entries)),
	}
	for k, c := range j.snapKeys {
		st.Cached = append(st.Cached, cachedItem{Key: k, cachedReply: c})
	}
	for _, e := range j.entries {
		st.Entries = append(st.Entries, *e)
	}
	return st
}

// decodeState reads a snapshot written by EncodeState.
func decodeState(data []byte) (journalState, error) {
	r := wire.NewReader(data)
	st := journalState{NextSeq: r.Uvarint(), UpTo: r.Uvarint()}
	st.Cached = make([]cachedItem, r.Count(minCachedSize))
	for i := range st.Cached {
		c := &st.Cached[i]
		c.Key, c.Seq, c.Digest, c.AppErr = r.Str(), r.Uvarint(), r.Str(), r.Str()
		c.Reply = ReadReply(&r)
	}
	st.Entries = make([]Entry, r.Count(minEntrySize))
	for i := range st.Entries {
		st.Entries[i] = ReadEntry(&r)
	}
	return st, r.Done()
}

// MergeState folds a peer's encoded journal into this one. Status
// priority decides per-key conflicts (higher status = more knowledge);
// unlike ApplyPrepare, merge never re-assigns ownership. Returns the
// number of entries that changed local state.
func (j *Journal) MergeState(data []byte) (int, error) {
	st, err := decodeState(data)
	if err != nil {
		return 0, fmt.Errorf("replog: decode state: %w", err)
	}
	return j.merge(&st), nil
}

// merge folds a decoded snapshot or catch-up delta into the journal and
// returns the number of entries that changed local state.
func (j *Journal) merge(st *journalState) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	applied := 0
	committedBefore := j.highestCommittedLocked()
	if st.NextSeq > j.nextSeq {
		j.nextSeq = st.NextSeq
	}
	if st.UpTo > j.snapUpTo {
		j.snapUpTo = st.UpTo
	}
	for _, c := range st.Cached {
		if _, ok := j.snapKeys[c.Key]; ok {
			continue
		}
		if e, ok := j.entries[c.Key]; ok && e.Status >= StatusCommitted {
			continue
		}
		c.share = itemSum(c.Seq, c.Key)
		j.snapKeys[c.Key] = c.cachedReply
		delete(j.entries, c.Key)
		applied++
	}
	for i := range st.Entries {
		e := st.Entries[i]
		if _, ok := j.snapKeys[e.Key]; ok {
			continue
		}
		cur, ok := j.entries[e.Key]
		if ok && cur.Status >= e.Status {
			continue
		}
		cp := e
		j.entries[e.Key] = &cp
		if e.Seq > j.nextSeq {
			j.nextSeq = e.Seq
		}
		applied++
	}
	if applied > 0 {
		j.counters.Add("merge.applied", int64(applied))
	}
	if j.highestCommittedLocked() > committedBefore {
		j.notifyCommitLocked()
	}
	j.maybeCompactLocked()
	return applied
}
