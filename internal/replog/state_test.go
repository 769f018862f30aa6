package replog

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"whisper/internal/wire"
)

// TestEntryRoundTrip: an application error, a reply with XML
// metacharacters, and an empty reply, which reads as nil whether it was
// written nil or empty.
func TestEntryRoundTrip(t *testing.T) {
	for name, e := range map[string]Entry{
		"committed": {Seq: 9, Key: "k", Op: "Op", Digest: "d", Origin: "b1", OriginAddr: "a:1",
			Status: StatusCommitted, Reply: []byte("<R>a &amp; b</R>")},
		"app error":   {Seq: 1, Key: "k", Status: StatusCommitted, AppErr: "not enrolled"},
		"empty reply": {Seq: 1, Key: "k", Status: StatusExecuted, Reply: []byte{}},
		"zero fields": {Status: StatusPrepared},
	} {
		data := AppendEntry([]byte("prefix"), &e)[len("prefix"):]
		if len(data) > EntrySize(&e) {
			t.Errorf("%s: %d bytes, EntrySize bounds it at %d", name, len(data), EntrySize(&e))
		}
		r := wire.NewReader(data)
		got := ReadEntry(&r)
		if err := r.Done(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(e.Reply) == 0 {
			e.Reply = nil
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("%s: got %+v, want %+v", name, got, e)
		}
		for i := range data {
			r := wire.NewReader(data[:i])
			if ReadEntry(&r); r.Done() == nil {
				t.Errorf("%s: read truncated at byte %d of %d", name, i, len(data))
			}
		}
	}
}

func TestEntryRejectsStatusOutsideTheLifecycle(t *testing.T) {
	for _, st := range []Status{0, StatusCommitted + 1} {
		r := wire.NewReader(AppendEntry(nil, &Entry{Key: "k", Status: st}))
		if e := ReadEntry(&r); r.Done() == nil {
			t.Errorf("status %d read as %+v", int(st), e)
		}
	}
}

// journalWith builds a journal holding n committed keys, compacted past
// threshold, plus one foreign prepared claim and one application error.
func journalWith(n, threshold int) *Journal {
	j := New("peer-1", "addr-1")
	j.SetCompactionThreshold(threshold)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%04d", i)
		j.Begin(key, "Op", Digest([]byte(key)))
		_ = j.MarkExecuting(key)
		appErr := ""
		if i == 0 {
			appErr = "rejected"
		}
		_ = j.MarkExecuted(key, []byte("<R>"+key+"</R>"), appErr)
		_ = j.MarkCommitted(key)
	}
	j.ApplyPrepare(Entry{Seq: uint64(n + 1), Key: "foreign", Digest: "d", Origin: "peer-0", OriginAddr: "addr-0", Status: StatusPrepared})
	return j
}

// TestStateTruncatedAtEveryByte: a snapshot holding compacted replies and
// live entries decodes whole and refuses every strict prefix and a
// trailing byte, without touching the journal it was offered to.
func TestStateTruncatedAtEveryByte(t *testing.T) {
	data, err := journalWith(6, 4).EncodeState()
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeState(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cached) == 0 || len(st.Entries) == 0 {
		t.Fatalf("snapshot holds %d cached and %d live entries, want both", len(st.Cached), len(st.Entries))
	}
	dst := New("peer-2", "addr-2")
	for i := range data {
		if n, err := dst.MergeState(data[:i]); !errors.Is(err, wire.ErrMalformed) || n != 0 {
			t.Fatalf("merged truncated at byte %d of %d: %d, %v", i, len(data), n, err)
		}
	}
	if _, err := dst.MergeState(append(data[:len(data):len(data)], 0)); err == nil {
		t.Error("merged a snapshot with a trailing byte")
	}
	if st := dst.Stats(); st.NextSeq != 0 || st.Live != 0 || st.Snapshotted != 0 {
		t.Errorf("refused snapshots changed the journal: %+v", st)
	}
}

func TestStateRejectsForgedCounts(t *testing.T) {
	for name, data := range map[string][]byte{
		"cached count":      {0, 0, 200, 0},
		"entry count":       {0, 0, 0, 200, 1, 2, 3},
		"entry count u64":   {0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"old XML":           []byte(`<JournalState NextSeq="1" UpTo="0"></JournalState>`),
		"empty":             nil,
		"trailing after it": {0, 0, 0, 0, 0},
	} {
		if _, err := New("p", "a").MergeState(data); err == nil {
			t.Errorf("%s: merged", name)
		}
	}
}

// FuzzMergeState: a catching-up replica merges whatever a member sends
// it, so arbitrary bytes must come back as an error, or as a snapshot
// that encodes and decodes to itself and merges into a journal.
func FuzzMergeState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := decodeState(data)
		if err != nil {
			return
		}
		again, err := decodeState(st.encode())
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(st, again) {
			t.Fatalf("round trip changed the snapshot:\n first %+v\nsecond %+v", st, again)
		}
		if _, err := New("fuzz", "fuzz-addr").MergeState(data); err != nil {
			t.Fatalf("decodable snapshot does not merge: %v", err)
		}
	})
}

// BenchmarkJournalStateRoundTrip: the failover barrier's state transfer
// for a journal of 1 000 committed keys — the member encodes, the new
// coordinator merges into an empty journal.
func BenchmarkJournalStateRoundTrip(b *testing.B) {
	src := journalWith(1000, 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data, err := src.EncodeState()
		if err != nil {
			b.Fatal(err)
		}
		if n, err := New("peer-2", "addr-2").MergeState(data); err != nil || n != 1001 {
			b.Fatalf("merged %d entries, %v; want 1001", n, err)
		}
	}
}
