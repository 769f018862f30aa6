package gossip

import (
	"encoding/binary"
	"fmt"

	"whisper/internal/wire"
)

// Wire encoding: length-prefixed binary frames in the peers' one codec
// (package wire). Advertisement payloads are opaque byte strings (XML
// documents) carried without escaping, and the digest and delta
// encoders stay allocation-free: they append into caller-owned
// buffers.

// entry flag bits.
const flagDeleted = 1

// AppendEntry encodes e onto dst and returns the extended slice.
func AppendEntry(dst []byte, e *Entry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.Key)))
	dst = append(dst, e.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(e.Origin)))
	dst = append(dst, e.Origin...)
	dst = binary.AppendUvarint(dst, e.Version)
	var flags byte
	if e.Deleted {
		flags |= flagDeleted
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(e.Expire))
	dst = binary.AppendUvarint(dst, uint64(len(e.Payload)))
	dst = append(dst, e.Payload...)
	return dst
}

// DecodeEntry decodes one entry from b, returning it and the number of
// bytes consumed. The entry's strings and payload are copies, safe to
// retain.
func DecodeEntry(b []byte) (Entry, int, error) {
	r := wire.NewReader(b)
	key, origin, version, flags := r.Bytes(), r.Bytes(), r.Uvarint(), r.Take(1)
	expire, payload := r.Uvarint(), r.Bytes()
	if r.Bad() {
		return Entry{}, 0, fmt.Errorf("gossip: entry: %w", wire.ErrMalformed)
	}
	e := Entry{
		Key:     string(key),
		Origin:  string(origin),
		Version: version,
		Deleted: flags[0]&flagDeleted != 0,
		Expire:  int64(expire),
	}
	if len(payload) > 0 {
		e.Payload = append([]byte(nil), payload...)
	}
	return e, len(b) - r.Len(), nil
}

// AppendEntryCount prefixes an entry batch with its count.
func AppendEntryCount(dst []byte, n int) []byte {
	return binary.AppendUvarint(dst, uint64(n))
}

// DecodeEntryCount reads a batch count prefix.
func DecodeEntryCount(b []byte) (int, int, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return 0, 0, fmt.Errorf("gossip: batch count truncated")
	}
	return int(n), sz, nil
}
