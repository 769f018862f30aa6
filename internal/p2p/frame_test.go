package p2p

import (
	"reflect"
	"testing"

	"whisper/internal/simnet"
)

// FuzzDecodeRelayed: a message a peer passes on travels as its wire
// frame (simnet/frame.go), and Hops is the one field the frame carries
// that a forwarder may change. Arbitrary bytes must come back as an
// error or as a message that takes a hop (count it, frame it again)
// and arrives otherwise unchanged.
func FuzzDecodeRelayed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := simnet.DecodeFrame(data)
		if err != nil {
			return
		}
		msg.Hops++
		wrapped, err := simnet.AppendFrame(nil, &msg)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		delivered, err := simnet.DecodeFrame(wrapped)
		if err != nil {
			t.Fatalf("forwarded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(msg, delivered) {
			t.Fatalf("hop changed the message:\n forwarded %+v\n delivered %+v", msg, delivered)
		}
	})
}
