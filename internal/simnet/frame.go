package simnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"whisper/internal/wire"
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
		dst = wire.AppendString(dst, s)
	}
	dst = binary.AppendUvarint(dst, uint64(len(msg.Headers)))
	for k, v := range msg.Headers {
		dst = wire.AppendString(wire.AppendString(dst, k), v)
	}
	dst = wire.AppendBytes(dst, msg.Payload)
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

// DecodeFrame decodes data, which must hold exactly one frame. It
// returns an error, never panics, on malformed input. The returned
// Payload aliases data.
func DecodeFrame(data []byte) (Message, error) {
	if len(data) < 4 || len(data)-4 > MaxFrame || int(binary.BigEndian.Uint32(data)) != len(data)-4 {
		return Message{}, errFrame
	}
	r := wire.NewReader(data[4:])
	msg := Message{Proto: r.Str(), Kind: r.Str(), Src: r.Str(), Dst: r.Str()}
	// A forged count ends the loop when the bytes run out, and does not
	// size the map.
	for n := r.Uvarint(); n > 0 && !r.Bad(); n-- {
		if msg.Headers == nil {
			msg.Headers = make(map[string]string, min(n, 8))
		}
		k := r.Str()
		msg.Headers[k] = r.Str()
	}
	if p := r.Bytes(); len(p) > 0 {
		msg.Payload = p
	}
	if ns := int64(r.Uvarint()); ns != 0 {
		msg.SentAt = time.Unix(0, ns)
	}
	msg.Hops = int(r.Uvarint())
	if r.Done() != nil {
		return Message{}, errFrame
	}
	return msg, nil
}
