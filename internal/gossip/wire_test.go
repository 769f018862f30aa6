package gossip

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeEntry: a shard decodes whatever entries a peer pushes, so
// arbitrary bytes must come back as an error or as an entry that
// encodes and decodes to itself, having consumed no more than it was
// given. The corpus in testdata/fuzz holds entries with and without a
// payload, truncations and forged lengths.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		e, n, err := DecodeEntry(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		buf := AppendEntry(nil, &e)
		again, m, err := DecodeEntry(buf)
		if err != nil || m != len(buf) {
			t.Fatalf("re-encoded entry does not decode whole: %d of %d bytes, %v", m, len(buf), err)
		}
		if !reflect.DeepEqual(e, again) {
			t.Fatalf("round trip changed the entry:\n first %+v\nsecond %+v", e, again)
		}
	})
}

// FuzzParseDigest: a shard parses whatever digest a peer sends, so
// arbitrary bytes must come back as an error or as fingerprints read
// from bytes actually present — a forged count appends no more than the
// frame holds — that encode and parse to themselves.
func FuzzParseDigest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, n, err := ParseDigest(nil, data)
		if err != nil {
			return
		}
		// An element spends at least its origin length, count and sig.
		if n > len(data) || len(entries)*10 > n {
			t.Fatalf("%d fingerprints from %d of %d bytes", len(entries), n, len(data))
		}
		buf := binary.AppendUvarint(nil, uint64(len(entries)))
		for _, e := range entries {
			buf = binary.AppendUvarint(buf, uint64(len(e.Origin)))
			buf = append(buf, e.Origin...)
			buf = binary.LittleEndian.AppendUint64(binary.AppendUvarint(buf, e.Count), e.Sig)
		}
		again, m, err := ParseDigest(nil, buf)
		if err != nil || m != len(buf) || len(again) != len(entries) {
			t.Fatalf("re-encoded digest does not parse whole: %d of %d bytes, %v", m, len(buf), err)
		}
		for i := range entries {
			if string(entries[i].Origin) != string(again[i].Origin) || entries[i].Count != again[i].Count || entries[i].Sig != again[i].Sig {
				t.Fatalf("round trip changed fingerprint %d: %+v then %+v", i, entries[i], again[i])
			}
		}
	})
}
