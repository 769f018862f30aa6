// Package wire is the one binary codec peers speak inside their frames:
// uvarint lengths and counts, length-prefixed strings and byte strings,
// zigzag varints for signed numbers. Layouts built from it are written
// out in DESIGN.md (§5 frame, journal messages and snapshot; §8
// discovery query and document list).
//
// A Reader checks every length and count against the bytes that remain
// before anything is allocated from it, so a hostile message costs its
// decoder no more than its size. The first malformed field poisons the
// Reader: every later read returns a zero value, and Done reports the
// failure once, at the end, together with any trailing bytes.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrMalformed is what Done reports for a message that is truncated,
// carries a field that does not decode, or has trailing bytes.
var ErrMalformed = errors.New("wire: malformed message")

// AppendString appends s with its uvarint length.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBytes appends b with its uvarint length.
func AppendBytes(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendUvarint appends v as a uvarint.
func AppendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

// AppendVarint appends v as a zigzag varint, so a small negative number
// costs as few bytes as a small positive one.
func AppendVarint(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }

// Reader consumes one message. The zero value reads nothing; use
// NewReader.
type Reader struct {
	b   []byte // unread bytes; nil once a read failed
	bad bool
}

// NewReader returns a Reader over b. Slices it returns alias b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Fail marks the message malformed: a field decoded but holds a value
// the layout does not allow. Every later read returns a zero value.
func (r *Reader) Fail() { r.b, r.bad = nil, true }

// Take consumes the next n bytes; the result aliases the message and
// has no spare capacity.
func (r *Reader) Take(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.Fail()
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

// Uvarint consumes a uvarint. Most lengths and counts fit one byte,
// which the fast path reads without a call.
func (r *Reader) Uvarint() uint64 {
	if b := r.b; len(b) > 0 && b[0] < 0x80 {
		r.b = b[1:]
		return uint64(b[0])
	}
	v, n := binary.Uvarint(r.b)
	return r.advance(v, n)
}

// Varint consumes a zigzag varint.
func (r *Reader) Varint() int64 {
	v, n := binary.Varint(r.b)
	return int64(r.advance(uint64(v), n))
}

// advance consumes a varint of n bytes worth v; n <= 0 is a truncated
// or overflowing varint.
func (r *Reader) advance(v uint64, n int) uint64 {
	if n <= 0 {
		r.Fail()
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Bytes consumes a length-prefixed byte string, aliasing the message.
func (r *Reader) Bytes() []byte { return r.Take(r.Uvarint()) }

// Str consumes a length-prefixed string (a copy).
func (r *Reader) Str() string { return string(r.Bytes()) }

// Count consumes a uvarint element count, where every element spends
// at least minSize bytes: a count of more elements than the remaining
// bytes can hold is malformed, so a count that passes may size an
// allocation.
func (r *Reader) Count(minSize int) int {
	n := r.Uvarint()
	if n > uint64(len(r.b)/max(minSize, 1)) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bad reports whether a read has failed.
func (r *Reader) Bad() bool { return r.bad }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Done reports ErrMalformed if any read failed or bytes remain.
func (r *Reader) Done() error {
	if r.bad || len(r.b) != 0 {
		return ErrMalformed
	}
	return nil
}
