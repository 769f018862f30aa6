package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTripEveryKind(t *testing.T) {
	msg := AppendUvarint(nil, math.MaxUint64)
	msg = AppendVarint(msg, math.MinInt64)
	msg = AppendVarint(msg, -1)
	msg = AppendString(msg, "a & <b>")
	msg = AppendBytes(msg, nil)
	msg = AppendBytes(msg, []byte{0, 1, 2})
	msg = AppendUvarint(msg, 2)

	r := NewReader(msg)
	if got := r.Uvarint(); got != math.MaxUint64 {
		t.Errorf("uvarint = %d", got)
	}
	if got := r.Varint(); got != math.MinInt64 {
		t.Errorf("varint = %d", got)
	}
	if got := r.Varint(); got != -1 {
		t.Errorf("negative varint = %d", got)
	}
	if got := r.Str(); got != "a & <b>" {
		t.Errorf("string = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty bytes = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2}) || cap(got) != 3 {
		t.Errorf("bytes = %q (cap %d)", got, cap(got))
	}
	if r.Done() == nil {
		t.Error("Done with an unread count reported success")
	}
	if got := r.Count(1); got != 0 || !r.Bad() {
		t.Errorf("count 2 with no bytes left = %d, bad %v; want a poisoned reader", got, r.Bad())
	}
}

func TestPoisonedReaderStaysPoisoned(t *testing.T) {
	// Eleven continuation bytes overflow a uvarint.
	r := NewReader(AppendString(bytes.Repeat([]byte{0xff}, 11), "next"))
	if r.Uvarint() != 0 || !r.Bad() {
		t.Fatal("an overflowing uvarint decoded")
	}
	if got := r.Str(); got != "" {
		t.Errorf("read after the first failure = %q, want the zero value", got)
	}
	if err := r.Done(); !errors.Is(err, ErrMalformed) {
		t.Errorf("Done = %v, want ErrMalformed", err)
	}
}

func TestCountAgainstRemainingBytes(t *testing.T) {
	for _, tc := range []struct {
		count, rest, minSize int
		ok                   bool
	}{
		{count: 3, rest: 3, minSize: 1, ok: true},
		{count: 4, rest: 3, minSize: 1},
		{count: 2, rest: 9, minSize: 4, ok: true},
		{count: 3, rest: 9, minSize: 4},
		{count: 0, rest: 0, minSize: 9, ok: true},
	} {
		r := NewReader(append(AppendUvarint(nil, uint64(tc.count)), make([]byte, tc.rest)...))
		got := r.Count(tc.minSize)
		if r.Bad() == tc.ok || tc.ok && got != tc.count {
			t.Errorf("count %d over %d bytes of %d-byte elements = %d, bad %v", tc.count, tc.rest, tc.minSize, got, r.Bad())
		}
	}
}

func TestTakeBeyondTheMessage(t *testing.T) {
	r := NewReader(AppendUvarint(nil, 5))
	if got := r.Bytes(); got != nil || !r.Bad() {
		t.Errorf("a 5-byte string with no bytes left = %q, bad %v", got, r.Bad())
	}
	r = NewReader(AppendUvarint(nil, math.MaxUint64))
	if got := r.Bytes(); got != nil || !r.Bad() {
		t.Errorf("a 2^64-byte string = %q, bad %v", got, r.Bad())
	}
}
