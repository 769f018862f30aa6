package simnet

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

func fullMessage() Message {
	return Message{
		Proto:   "pipe",
		Kind:    "request",
		Src:     "127.0.0.1:7101",
		Dst:     "127.0.0.1:7102",
		Headers: map[string]string{"corr": "42", "trace": "a1b2"},
		Payload: []byte("<soap/>"),
		SentAt:  time.Unix(1159833600, 123456789),
		Hops:    3,
	}
}

func TestFrameRoundTripsEveryField(t *testing.T) {
	for name, want := range map[string]Message{
		"full":          fullMessage(),
		"zero":          {},
		"negative hops": {Proto: "p", Hops: -1},
		"long strings":  {Proto: strings.Repeat("p", 300), Payload: make([]byte, 70000)},
	} {
		frame, err := AppendFrame([]byte("prefix"), &want)
		if err != nil {
			t.Fatalf("%s: append: %v", name, err)
		}
		got, err := DecodeFrame(frame[len("prefix"):])
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !got.SentAt.Equal(want.SentAt) || got.SentAt.IsZero() != want.SentAt.IsZero() {
			t.Errorf("%s: SentAt = %v, want %v", name, got.SentAt, want.SentAt)
		}
		got.SentAt, want.SentAt = time.Time{}, time.Time{}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
}

func TestFrameRefusesOversize(t *testing.T) {
	big := Message{Payload: make([]byte, MaxFrame)}
	if frame, err := AppendFrame(nil, &big); err == nil {
		t.Errorf("AppendFrame accepted a %d-byte frame", len(frame))
	}
	// A forged prefix is refused on the prefix alone.
	if _, err := DecodeFrame([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("DecodeFrame accepted a 4 GiB length prefix")
	}
}

// FuzzDecodeFrame: arbitrary bytes are an error or a Message whose own
// frame decodes to the same Message. The corpus in testdata/fuzz holds a
// valid frame, truncations at every field boundary and forged lengths.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeFrame(data)
		if err != nil {
			return
		}
		frame, err := AppendFrame(nil, &msg)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		again, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip changed the message:\n first %+v\nsecond %+v", msg, again)
		}
	})
}
