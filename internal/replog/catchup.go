package replog

import (
	"fmt"
	"slices"

	"whisper/internal/wire"
)

// This file implements the catch-up summary (layout and argument:
// DESIGN.md §5 "Catch-up ships only what the requester lacks"). A
// replica that catches up sends a Summary of its journal; the member it
// asks answers with EncodeCatchUp: a delta in the snapshot layout that
// leaves out what the requester already holds committed, wherever the
// two journals agree, or its full snapshot when they mostly disagree.
// Merging either answer leaves the requester with the same journal.

// Summary describes a journal to the member it catches up from.
type Summary struct {
	// Committed is the highest committed sequence the journal holds.
	Committed uint64
	// Digests holds one digest per range of [1, Committed] (see
	// summaryRanges): the order-independent digest of every (seq, key)
	// pair the journal holds in that range, compacted or live, in any
	// status.
	Digests []uint64
	// Open lists the live keys at seq in [1, Committed] that are not
	// committed: the only keys the summary covers whose merge can still
	// change.
	Open []string
}

// summaryRanges is the most ranges a Summary splits [1, Committed]
// into. A pair one journal holds and the other does not costs one
// range, a thirty-second of the history, instead of the whole journal.
const summaryRanges = 32

// resendFraction bounds the ranges a delta sends whole: past a quarter
// of them, hashing every entry and then copying those ranges would hold
// the journal lock longer than the full snapshot's copy does, for an
// answer not much smaller.
const resendFraction = 4

// ranges splits [1, upTo] into at most summaryRanges ranges of width
// sequences each, the smallest width that needs no more.
type ranges struct{ upTo, width uint64 }

func rangesUpTo(h uint64) ranges { return ranges{upTo: h, width: max(1, ceilDiv(h, summaryRanges))} }

// count returns the number of ranges.
func (rs ranges) count() int { return int(ceilDiv(rs.upTo, rs.width)) }

// ceilDiv is a/b rounded up, without overflow.
func ceilDiv(a, b uint64) uint64 {
	q := a / b
	if a%b != 0 {
		q++
	}
	return q
}

// index returns the range that holds seq, and false for a sequence
// outside [1, upTo]: no summary covers it, and every answer ships it.
func (rs ranges) index(seq uint64) (int, bool) {
	if seq == 0 || seq > rs.upTo {
		return 0, false
	}
	return int((seq - 1) / rs.width), true
}

// Smallest wire forms of a digest and of an open key.
const (
	minDigestSize     = 1
	minSummaryKeySize = 1
)

// AppendSummary appends s's wire form: the committed mark, the range
// digests and the open keys.
func AppendSummary(dst []byte, s *Summary) []byte {
	dst = wire.AppendUvarint(wire.AppendUvarint(dst, s.Committed), uint64(len(s.Digests)))
	for _, d := range s.Digests {
		dst = wire.AppendUvarint(dst, d)
	}
	dst = wire.AppendUvarint(dst, uint64(len(s.Open)))
	for _, k := range s.Open {
		dst = wire.AppendString(dst, k)
	}
	return dst
}

// ReadSummary reads a summary written by AppendSummary. Empty lists
// read as nil.
func ReadSummary(r *wire.Reader) Summary {
	s := Summary{Committed: r.Uvarint()}
	if n := r.Count(minDigestSize); n > 0 {
		s.Digests = make([]uint64, n)
		for i := range s.Digests {
			s.Digests[i] = r.Uvarint()
		}
	}
	if n := r.Count(minSummaryKeySize); n > 0 {
		s.Open = make([]string, n)
		for i := range s.Open {
			s.Open[i] = r.Str()
		}
	}
	return s
}

// itemSum is one (seq, key) pair's share of a range digest: FNV-1a
// over the key, folded with the sequence and finished with the
// splitmix64 mixer. Shares are added, so a digest is independent of map
// order and counts a pair held twice twice.
func itemSum(seq uint64, key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= seq * 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}

// Summary summarises the journal for a catch-up request.
func (j *Journal) Summary() Summary {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := Summary{Committed: j.highestCommittedLocked()}
	rs := rangesUpTo(s.Committed)
	if n := rs.count(); n > 0 {
		s.Digests = make([]uint64, n)
	}
	for _, c := range j.snapKeys {
		if r, ok := rs.index(c.Seq); ok {
			s.Digests[r] += c.share
		}
	}
	for _, e := range j.entries {
		r, ok := rs.index(e.Seq)
		if !ok {
			continue
		}
		s.Digests[r] += itemSum(e.Seq, e.Key)
		if e.Status != StatusCommitted {
			s.Open = append(s.Open, e.Key)
		}
	}
	return s
}

// EncodeCatchUp answers a catch-up request from the journal s
// summarises with a delta, or with the full snapshot (EncodeState) when
// more than a quarter of the summary's ranges disagree with this
// journal.
// Both are in the snapshot layout and MergeState reads either. It
// counts the answer as catchup.delta or catchup.full, and the ranges a
// delta sends whole as catchup.range.
func (j *Journal) EncodeCatchUp(s *Summary) []byte {
	st, delta := j.deltaState(s)
	if delta {
		j.counters.Add("catchup.delta", 1)
	} else {
		j.counters.Add("catchup.full", 1)
		st = j.snapshotState()
	}
	return st.encode()
}

// deltaState copies what the journal s summarises lacks: every
// compacted or live entry s does not cover, every live entry that is
// not committed, this journal's version of each open key, and every
// entry of a range whose digest differs from the summary's. A range
// whose digests agree holds the same pairs on both sides, so what it
// leaves out the requester holds committed. One pass under the lock
// sums the shares of what it does not copy (a compacted entry's share
// is computed when it is compacted), a second copies the differing
// ranges.
// It reports false when more than a quarter of the ranges differ (see
// resendFraction), or the summary is not well formed.
func (j *Journal) deltaState(s *Summary) (journalState, bool) {
	rs := rangesUpTo(s.Committed)
	if len(s.Digests) != rs.count() {
		return journalState{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := journalState{NextSeq: j.nextSeq, UpTo: j.snapUpTo}
	// Per range: the digest, and how many compacted and committed live
	// entries a resend of the range copies.
	sums := make([]uint64, len(s.Digests))
	cached, committed := make([]int, len(sums)), make([]int, len(sums))
	for k, c := range j.snapKeys {
		if r, ok := rs.index(c.Seq); ok {
			sums[r] += c.share
			cached[r]++
		} else {
			st.Cached = append(st.Cached, cachedItem{Key: k, cachedReply: c})
		}
	}
	for _, e := range j.entries {
		r, covered := rs.index(e.Seq)
		if covered {
			sums[r] += itemSum(e.Seq, e.Key)
			if e.Status == StatusCommitted {
				committed[r]++
			}
		}
		if !covered || e.Status != StatusCommitted {
			st.Entries = append(st.Entries, *e)
		}
	}
	differs := make([]bool, len(sums))
	n, moreCached, moreCommitted := 0, 0, 0
	for r := range sums {
		if differs[r] = sums[r] != s.Digests[r]; differs[r] {
			n++
			moreCached += cached[r]
			moreCommitted += committed[r]
		}
	}
	if n > len(sums)/resendFraction {
		return journalState{}, false
	}
	// Entries the summary does not cover, and live entries not
	// committed, are copied already.
	covered := func(seq uint64) bool {
		_, ok := rs.index(seq)
		return ok
	}
	resend := func(seq uint64) bool {
		r, ok := rs.index(seq)
		return ok && differs[r]
	}
	if n > 0 {
		j.counters.Add("catchup.range", int64(n))
		st.Cached = slices.Grow(st.Cached, moreCached)
		st.Entries = slices.Grow(st.Entries, moreCommitted)
		for k, c := range j.snapKeys {
			if resend(c.Seq) {
				st.Cached = append(st.Cached, cachedItem{Key: k, cachedReply: c})
			}
		}
		for _, e := range j.entries {
			if e.Status == StatusCommitted && resend(e.Seq) {
				st.Entries = append(st.Entries, *e)
			}
		}
	}
	for _, k := range s.Open {
		if c, ok := j.snapKeys[k]; ok && covered(c.Seq) && !resend(c.Seq) {
			st.Cached = append(st.Cached, cachedItem{Key: k, cachedReply: c})
		}
		if e, ok := j.entries[k]; ok && e.Status == StatusCommitted && covered(e.Seq) && !resend(e.Seq) {
			st.Entries = append(st.Entries, *e)
		}
	}
	return st, true
}

// MergeCatchUp merges an answer to the catch-up request s summarised
// (see MergeState) and reports how many of s's ranges the answer sent
// whole: those in which it carries a compacted or committed entry
// outside s.Open, which a delta does only in a range whose digests
// differ. A full snapshot sends more than a quarter of them.
func (j *Journal) MergeCatchUp(data []byte, s *Summary) (applied, resent int, err error) {
	st, err := decodeState(data)
	if err != nil {
		return 0, 0, fmt.Errorf("replog: decode state: %w", err)
	}
	return j.merge(&st), s.resent(&st), nil
}

// FullCatchUp reports whether an answer that sent whole ranges of the
// ranges its summary has was the full snapshot, as far as the requester
// can tell: a delta sends at most a quarter of them whole.
func FullCatchUp(whole, ranges int) bool { return whole > ranges/resendFraction }

// resent counts the ranges of s that st sends whole.
func (s *Summary) resent(st *journalState) int {
	rs := rangesUpTo(s.Committed)
	open := make(map[string]bool, len(s.Open))
	for _, k := range s.Open {
		open[k] = true
	}
	whole := make(map[int]bool)
	held := func(seq uint64, key string) {
		if r, ok := rs.index(seq); ok && !open[key] {
			whole[r] = true
		}
	}
	for i := range st.Cached {
		held(st.Cached[i].Seq, st.Cached[i].Key)
	}
	for i := range st.Entries {
		if e := &st.Entries[i]; e.Status == StatusCommitted {
			held(e.Seq, e.Key)
		}
	}
	return len(whole)
}
