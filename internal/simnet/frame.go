package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// The wire frame of a Message, the one binary format peers exchange on
// real sockets and inside relay envelopes (layout: DESIGN.md §5). Every
// length is checked against the bytes that remain before anything is
// allocated: a hostile frame costs its decoder no more than its size.

// MaxFrame bounds the body of one frame. The largest messages in the
// system are journal snapshots of a few megabytes.
const MaxFrame = 16 << 20

var errFrame = errors.New("simnet: malformed frame")

// AppendFrame appends msg's frame to dst. Header order follows map
// iteration, so equal messages need not encode to equal bytes.
func AppendFrame(dst []byte, msg *Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	for _, s := range [...]string{msg.Proto, msg.Kind, msg.Src, msg.Dst} {
		dst = appendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(msg.Headers)))
	for k, v := range msg.Headers {
		dst = appendString(appendString(dst, k), v)
	}
	dst = append(binary.AppendUvarint(dst, uint64(len(msg.Payload))), msg.Payload...)
	var sentAt int64 // Unix nanoseconds, 0 for the zero Time
	if !msg.SentAt.IsZero() {
		sentAt = msg.SentAt.UnixNano()
	}
	dst = binary.AppendUvarint(binary.AppendUvarint(dst, uint64(sentAt)), uint64(msg.Hops))
	n := len(dst) - start - 4
	if n > MaxFrame {
		return dst[:start], fmt.Errorf("simnet: %d-byte frame exceeds the %d-byte maximum", n, MaxFrame)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(n))
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// frameReader consumes a frame body; the first malformed field sets
// bad and every later read returns a zero value.
type frameReader struct {
	b   []byte
	bad bool
}

func (r *frameReader) take(n uint64) []byte {
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	out := r.b[:n:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if r.bad || n <= 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) str() string { return string(r.take(r.uvarint())) }

// DecodeFrame decodes data, which must hold exactly one frame. It
// returns an error, never panics, on malformed input. The returned
// Payload aliases data.
func DecodeFrame(data []byte) (Message, error) {
	if len(data) < 4 || len(data)-4 > MaxFrame || int(binary.BigEndian.Uint32(data)) != len(data)-4 {
		return Message{}, errFrame
	}
	r := frameReader{b: data[4:]}
	msg := Message{Proto: r.str(), Kind: r.str(), Src: r.str(), Dst: r.str()}
	// A forged count ends the loop when the bytes run out, and does not
	// size the map.
	for n := r.uvarint(); n > 0 && !r.bad; n-- {
		if msg.Headers == nil {
			msg.Headers = make(map[string]string, min(n, 8))
		}
		k := r.str()
		msg.Headers[k] = r.str()
	}
	if p := r.take(r.uvarint()); len(p) > 0 {
		msg.Payload = p
	}
	if ns := int64(r.uvarint()); ns != 0 {
		msg.SentAt = time.Unix(0, ns)
	}
	msg.Hops = int(r.uvarint())
	if r.bad || len(r.b) != 0 {
		return Message{}, errFrame
	}
	return msg, nil
}
