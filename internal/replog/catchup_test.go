package replog

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"whisper/internal/wire"
)

func TestSummaryRoundTrip(t *testing.T) {
	for name, s := range map[string]Summary{
		"empty":     {},
		"one range": {Committed: 1, Digests: []uint64{1<<64 - 1}},
		"open keys": {Committed: 300, Digests: []uint64{42, 0, 7}, Open: []string{"q1-256", "", "k"}},
	} {
		data := AppendSummary([]byte("prefix"), &s)[len("prefix"):]
		r := wire.NewReader(data)
		got := ReadSummary(&r)
		if err := r.Done(); err != nil || !reflect.DeepEqual(got, s) {
			t.Errorf("%s: got %+v, %v", name, got, err)
		}
		for i := range data {
			r := wire.NewReader(data[:i])
			ReadSummary(&r)
			if r.Done() == nil {
				t.Errorf("%s: decoded truncated at byte %d of %d", name, i, len(data))
			}
		}
	}
}

// TestSummaryRangesCoverTheMark: every covered sequence falls in one of
// at most 32 ranges, up to the largest mark a journal can hold.
func TestSummaryRangesCoverTheMark(t *testing.T) {
	for _, h := range []uint64{0, 1, 2, 31, 32, 33, 64, 1000, 1<<64 - 1} {
		rs := rangesUpTo(h)
		n := rs.count()
		if n > summaryRanges || (h > 0) != (n > 0) {
			t.Errorf("mark %d: %d ranges", h, n)
		}
		for _, seq := range []uint64{1, h / 2, h - 1, h} {
			if seq == 0 || seq > h {
				continue
			}
			if r, ok := rs.index(seq); !ok || r >= n {
				t.Errorf("mark %d: seq %d in range %d of %d (covered %v)", h, seq, r, n, ok)
			}
		}
		if _, ok := rs.index(0); ok {
			t.Errorf("mark %d covers seq 0", h)
		}
		if _, ok := rs.index(h + 1); ok && h+1 != 0 {
			t.Errorf("mark %d covers seq %d", h, h+1)
		}
	}
}

// answer has s answer a catch-up request summarised by sum and reports
// how, from its counters: the ranges its delta sent whole, or full for
// the full snapshot.
func answer(s *Journal, sum *Summary) (data []byte, ranges int, full bool) {
	c := s.Counters()
	ranges0, full0 := c.Get("catchup.range"), c.Get("catchup.full")
	data = s.EncodeCatchUp(sum)
	return data, int(c.Get("catchup.range") - ranges0), c.Get("catchup.full") > full0
}

// commitEntry runs key through a whole coordinator cycle on j and returns
// the committed entry.
func commitEntry(t *testing.T, j *Journal, key string) Entry {
	t.Helper()
	if res := j.Begin(key, "Op", Digest([]byte(key))); res.Decision != BeginNew {
		t.Fatalf("Begin(%s) = %+v", key, res)
	}
	if err := j.MarkExecuting(key); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkExecuted(key, []byte("<R>"+key+"</R>"), ""); err != nil {
		t.Fatal(err)
	}
	e, err := j.Commit(key)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCommitReturnsTheCompactedEntry: the commit that compacts still
// hands back the committed entry, which is what gets replicated.
func TestCommitReturnsTheCompactedEntry(t *testing.T) {
	j := New("peer-1", "addr-1")
	j.SetCompactionThreshold(2)
	commitEntry(t, j, "k1")
	e := commitEntry(t, j, "k2")
	if _, live := j.Entry("k2"); live {
		t.Fatal("k2 still live: the commit did not compact")
	}
	if e.Seq != 2 || e.Key != "k2" || e.Status != StatusCommitted || string(e.Reply) != "<R>k2</R>" {
		t.Fatalf("Commit returned %+v", e)
	}
}

// TestCatchUpPartitionCollisionShipsFullSnapshot: two coordinators on
// either side of a partition commit different keys at the same
// sequence. The requester's mark covers the other side's key, so a mark
// alone would leave it out for good, and a retry of it would execute a
// second time. The digests differ, so the answer is the full snapshot
// and the requester ends with both keys.
func TestCatchUpPartitionCollisionShipsFullSnapshot(t *testing.T) {
	a, b := New("a", "a-addr"), New("b", "b-addr")
	commitEntry(t, a, "k-left")
	commitEntry(t, b, "k-right")

	sum := a.Summary()
	if sum.Committed != 1 || b.HighestCommitted() != 1 {
		t.Fatalf("marks %d and %d, want both at 1", sum.Committed, b.HighestCommitted())
	}
	data, _, full := answer(b, &sum)
	if !full {
		t.Fatal("answered a colliding journal with a delta")
	}
	if b.Counters().Get("catchup.full") != 1 || b.Counters().Get("catchup.delta") != 0 {
		t.Errorf("counters %v, want one catchup.full", b.Counters().Snapshot())
	}
	if _, resent, err := a.MergeCatchUp(data, &sum); err != nil || resent != 1 {
		t.Fatalf("MergeCatchUp: %d of 1 ranges resent, %v; want the full snapshot", resent, err)
	}
	for _, key := range []string{"k-left", "k-right"} {
		if reply, _, ok := a.CachedReply(key); !ok || string(reply) != "<R>"+key+"</R>" {
			t.Errorf("after the catch-up the requester has no cached reply for %s", key)
		}
	}
}

// TestCatchUpShipsOnlyTheTail: a follower that saw every commit but the
// last few, and one whose COMMIT it missed, is answered with those and
// the coordinator's open entries, not with history.
func TestCatchUpShipsOnlyTheTail(t *testing.T) {
	coord, follower := New("c", "c-addr"), New("f", "f-addr")
	coord.SetCompactionThreshold(8)
	follower.SetCompactionThreshold(8)
	for i := 0; i < 40; i++ {
		e := commitEntry(t, coord, fmt.Sprintf("k%02d", i))
		switch {
		case i == 10:
			follower.ApplyPrepare(e)
		case i < 37:
			follower.ApplyCommit(e)
		}
	}
	coord.Begin("in-flight", "Op", "d")
	sum := follower.Summary()
	data, ranges, full := answer(coord, &sum)
	if full || ranges != 0 {
		t.Fatalf("a follower that saw a prefix of the commits got full=%v, %d ranges resent", full, ranges)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Cached) + len(st.Entries); got != 5 {
		t.Errorf("delta carries %d entries, want the 4 missed commits and the in-flight claim", got)
	}
	if _, resent, err := follower.MergeCatchUp(data, &sum); err != nil || resent != 0 {
		t.Fatalf("MergeCatchUp: %d ranges resent, %v; want none", resent, err)
	}
	if follower.HighestCommitted() != coord.HighestCommitted() {
		t.Errorf("follower mark %d, coordinator %d", follower.HighestCommitted(), coord.HighestCommitted())
	}
	if _, _, ok := follower.CachedReply("k10"); !ok {
		t.Error("the follower has no reply for the write whose COMMIT it missed")
	}
}

// cloneJournal copies j's state into a fresh journal with new counters.
func cloneJournal(j *Journal) *Journal {
	j.mu.Lock()
	defer j.mu.Unlock()
	c := New(j.owner, j.addr)
	c.nextSeq, c.snapUpTo, c.compactAt = j.nextSeq, j.snapUpTo, j.compactAt
	for k, e := range j.entries {
		cp := *e
		c.entries[k] = &cp
	}
	maps.Copy(c.snapKeys, j.snapKeys)
	return c
}

// historyGroup drives three journals through a random history of one
// journaled group: writes, replication that sometimes misses a member,
// crashes mid-execution, fail-stop aborts, resolution of a claim with
// its origin (adopt, re-own, poison), coordinator changes with and
// without a catch-up, and compaction at a small threshold. Two members
// that coordinate at once (a partition) commit at the same sequence.
type historyGroup struct {
	rng  *rand.Rand
	js   []*Journal
	keys []string
	// rival is the member cut off on its own side of a partition, where
	// it coordinates too; -1 when the group is whole.
	rival int
}

func newHistoryGroup(seed int64) *historyGroup {
	h := &historyGroup{rng: rand.New(rand.NewSource(seed)), rival: -1}
	for i := 0; i < 3; i++ {
		j := New(fmt.Sprintf("r%d", i), fmt.Sprintf("r%d-addr", i))
		j.SetCompactionThreshold(2 + h.rng.Intn(5))
		h.js = append(h.js, j)
	}
	for i := 0; i < 24; i++ {
		h.keys = append(h.keys, fmt.Sprintf("key-%02d", i))
	}
	return h
}

func (h *historyGroup) chance(p float64) bool { return h.rng.Float64() < p }

// replicate hands e to every member on from's side of a partition but
// from, each with probability p.
func (h *historyGroup) replicate(from int, p float64, apply func(*Journal, Entry), e Entry) {
	for i, j := range h.js {
		if i != from && (i == h.rival) == (from == h.rival) && h.chance(p) {
			apply(j, e)
		}
	}
}

func (h *historyGroup) byOwner(name string) *Journal {
	for _, j := range h.js {
		if j.owner == name {
			return j
		}
	}
	return nil
}

// write runs one keyed request on coordinator c.
func (h *historyGroup) write(c int) {
	j := h.js[c]
	key := h.keys[h.rng.Intn(len(h.keys))]
	res := j.Begin(key, "Op", Digest([]byte(key)))
	if res.Decision == BeginPending {
		origin := h.byOwner(res.Origin)
		switch st := origin.Resolve(key); st {
		case StatusExecuted, StatusCommitted:
			reply, appErr, _ := origin.CachedReply(key)
			j.AdoptReply(key, reply, appErr)
			return
		case StatusAborted:
			if j.Reown(key) != nil {
				return
			}
		default:
			j.MarkPoisoned(key)
			return
		}
	} else if res.Decision != BeginNew {
		return
	}
	const delivered = 0.9
	if e, ok := j.Entry(key); ok {
		h.replicate(c, delivered, (*Journal).ApplyPrepare, e)
	}
	if h.chance(0.05) {
		return // crashed before executing: the claim stays prepared
	}
	if j.MarkExecuting(key) != nil {
		return
	}
	switch {
	case h.chance(0.05):
		return // crashed mid-execution: a later Begin poisons it
	case h.chance(0.05):
		_ = j.MarkAborted(key) // fail-stop backend
		if e, ok := j.Entry(key); ok {
			h.replicate(c, delivered, (*Journal).ApplyAbort, e)
		}
		return
	}
	appErr := ""
	if h.chance(0.1) {
		appErr = "rejected"
	}
	if j.MarkExecuted(key, []byte("<R>"+key+"@"+j.owner+"</R>"), appErr) != nil {
		return
	}
	if e, err := j.Commit(key); err == nil && !h.chance(0.05) {
		h.replicate(c, delivered, (*Journal).ApplyCommit, e)
	}
}

// run plays steps of history and returns the group.
func (h *historyGroup) run(steps int) *historyGroup {
	coord := 2
	for s := 0; s < steps; s++ {
		switch {
		case h.chance(0.04):
			// Election: the successor catches up from one member (or,
			// cut off, from nobody).
			coord = h.rng.Intn(len(h.js))
			if peer := h.rng.Intn(len(h.js)); peer != coord && h.chance(0.7) {
				data, _ := h.js[peer].EncodeState()
				_, _ = h.js[coord].MergeState(data)
			}
		case h.rival < 0 && h.chance(0.03):
			// A partition cuts one member off, and it coordinates there.
			if h.rival = h.rng.Intn(len(h.js)); h.rival == coord {
				coord = (coord + 1) % len(h.js)
			}
		case h.chance(0.02):
			h.rival = -1
		}
		c := coord
		if h.rival >= 0 && h.chance(0.5) {
			c = h.rival
		}
		h.write(c)
	}
	return h
}

// journalView is everything merging can change that a caller can see.
type journalView struct {
	Entries []Entry
	Stats   Stats
	Replies map[string]string
}

func viewOf(j *Journal, keys []string) journalView {
	v := journalView{Entries: j.Entries(), Stats: j.Stats(), Replies: map[string]string{}}
	for _, k := range keys {
		if reply, appErr, ok := j.CachedReply(k); ok {
			v.Replies[k] = string(reply) + "|" + appErr
		}
	}
	return v
}

// TestCatchUpDeltaMergesLikeTheFullSnapshot: for random pairs of
// journals, merging the answer to the requester's summary leaves the
// requester exactly as merging the responder's full snapshot: the same
// entries, stats and cached replies. A barrier asks every member with
// one summary, so the test also merges two answers in a row.
func TestCatchUpDeltaMergesLikeTheFullSnapshot(t *testing.T) {
	deltas, partial, fulls := 0, 0, 0
	for seed := int64(1); seed <= 150; seed++ {
		h := newHistoryGroup(seed).run(20 + int(seed%60))
		for r := range h.js {
			s1, s2 := h.js[(r+1)%3], h.js[(r+2)%3]
			sum := h.js[r].Summary()
			viaDelta, viaFull := cloneJournal(h.js[r]), cloneJournal(h.js[r])
			for _, s := range []*Journal{s1, s2} {
				data, ranges, full := answer(s, &sum)
				snapshot, _ := s.EncodeState()
				_, resent, err := viaDelta.MergeCatchUp(data, &sum)
				if err != nil {
					t.Fatalf("seed %d: merge answer: %v", seed, err)
				}
				if !full && resent > ranges {
					t.Errorf("seed %d: the requester counts %d ranges resent in a delta that resent %d", seed, resent, ranges)
				}
				if _, err := viaFull.MergeState(snapshot); err != nil {
					t.Fatalf("seed %d: merge snapshot: %v", seed, err)
				}
				switch {
				case full:
					fulls++
				case ranges > 0:
					partial++
				default:
					deltas++
				}
				if got, want := viewOf(viaDelta, h.keys), viewOf(viaFull, h.keys); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s from %s: merging the answer (full=%v, %d ranges) differs from merging the snapshot:\n got %+v\nwant %+v",
						seed, h.js[r].owner, s.owner, full, ranges, got, want)
				}
			}
		}
	}
	// Every branch must be exercised for the equivalence to mean much.
	if total := deltas + partial + fulls; min(deltas, partial, fulls) < total/20 {
		t.Errorf("%d deltas, %d with ranges resent, %d full: the histories exercise a branch too little", deltas, partial, fulls)
	}
}

// TestCatchUpFollowerGapResendsOneRange: a follower that missed one
// write in the middle of the history (it was a suspect when the write
// was replicated) answers a catch-up with the range holding the gap, not
// with its whole journal.
func TestCatchUpFollowerGapResendsOneRange(t *testing.T) {
	coord, follower := New("c", "c-addr"), New("f", "f-addr")
	for i := 0; i < 320; i++ {
		e := commitEntry(t, coord, fmt.Sprintf("k%03d", i))
		if i != 100 {
			follower.ApplyCommit(e)
		}
	}
	sum := coord.Summary()
	data, ranges, full := answer(follower, &sum)
	if full || ranges != 1 {
		t.Fatalf("full=%v, %d ranges resent; want one range", full, ranges)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if got, width := len(st.Cached)+len(st.Entries), int(rangesUpTo(sum.Committed).width); got != width-1 {
		t.Errorf("answer carries %d entries, want the %d the follower holds in the gap's range", got, width-1)
	}
	if _, resent, err := coord.MergeCatchUp(data, &sum); err != nil || resent != 1 {
		t.Errorf("MergeCatchUp: %d ranges resent, %v; want 1", resent, err)
	}
}

// TestCatchUpBesideWrites: catch-ups answered and merged while the
// coordinator commits and compacts, the way a barrier overlaps
// replication that misses every third write. The requester ends with
// every write.
func TestCatchUpBesideWrites(t *testing.T) {
	coord, follower := New("c", "c-addr"), New("f", "f-addr")
	coord.SetCompactionThreshold(4)
	follower.SetCompactionThreshold(4)
	const writes = 400
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < writes; i++ {
			key := fmt.Sprintf("k%03d", i)
			coord.Begin(key, "Op", "d")
			_ = coord.MarkExecuting(key)
			_ = coord.MarkExecuted(key, []byte("<R/>"), "")
			if e, err := coord.Commit(key); err == nil && i%3 != 0 {
				follower.ApplyCommit(e)
			}
		}
	}()
	catchUp := func() {
		sum := follower.Summary()
		if _, _, err := follower.MergeCatchUp(coord.EncodeCatchUp(&sum), &sum); err != nil {
			t.Error(err)
		}
	}
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		catchUp()
	}
	catchUp()
	for i := 0; i < writes; i++ {
		if _, _, ok := follower.CachedReply(fmt.Sprintf("k%03d", i)); !ok {
			t.Fatalf("k%03d missing after the catch-ups", i)
		}
	}
}

// BenchmarkCatchUpLockHold compares what a catch-up answer does under
// the journal lock for a journal of 10 000 compacted keys: the full
// snapshot's copy, and the delta's passes for a requester one commit
// behind whose ranges all agree, or a quarter of them differ (the most
// a delta re-sends before the full snapshot takes over).
func BenchmarkCatchUpLockHold(b *testing.B) {
	src := journalWith(10000, 64)
	sum := src.Summary()
	quarter := sum
	quarter.Digests = slices.Clone(sum.Digests)
	for i := 0; i < len(quarter.Digests)/resendFraction; i++ {
		quarter.Digests[i]++
	}
	src.Begin("k-new", "Op", "d")
	_ = src.MarkExecuting("k-new")
	_ = src.MarkExecuted("k-new", []byte("<R/>"), "")
	_ = src.MarkCommitted("k-new")
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			src.snapshotState()
		}
	})
	for name, s := range map[string]*Summary{"delta": &sum, "delta-quarter-resent": &quarter} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := src.deltaState(s); !ok {
					b.Fatal("answered with the full snapshot")
				}
			}
		})
	}
}
