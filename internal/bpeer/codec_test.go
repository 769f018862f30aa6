package bpeer

import (
	"encoding/xml"
	"errors"
	"reflect"
	"testing"

	"whisper/internal/replog"
	"whisper/internal/wire"
)

// decodeXML and mustXML are small test helpers shared by the codec
// tests.
func decodeXML(data []byte, v any) error { return xml.Unmarshal(data, v) }

func mustXML(t *testing.T, v any) []byte {
	t.Helper()
	data, err := xml.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return data
}

func codecEntry(status replog.Status) replog.Entry {
	return replog.Entry{
		Seq: 42, Key: "order-7", Op: "Register", Digest: "d41d8cd9",
		Origin: "b1", OriginAddr: "127.0.0.1:7101", Status: status,
	}
}

// TestReplMsgRoundTrip: every kind, a reply with XML metacharacters (it
// travels unescaped), an application error, and an empty reply, which
// decodes as nil whether it was nil or empty — as XML's omitempty did.
func TestReplMsgRoundTrip(t *testing.T) {
	committed := codecEntry(replog.StatusCommitted)
	committed.Reply = []byte("<StudentInfo>a &amp; b</StudentInfo>")
	appErr := codecEntry(replog.StatusCommitted)
	appErr.AppErr = "student S9 is not enrolled"
	emptyReply := codecEntry(replog.StatusExecuted)
	emptyReply.Reply = []byte{}
	for name, msg := range map[string]replMsg{
		"prepare":     {Kind: replKindPrepare, Entry: codecEntry(replog.StatusPrepared)},
		"commit":      {Kind: replKindCommit, Entry: committed},
		"abort":       {Kind: replKindAbort, Entry: codecEntry(replog.StatusAborted)},
		"app error":   {Kind: replKindCommit, Entry: appErr},
		"empty reply": {Kind: replKindCommit, Entry: emptyReply},
		"zero fields": {Kind: replKindPrepare, Entry: replog.Entry{Status: replog.StatusPrepared}},
	} {
		data := msg.encode()
		got, err := decodeReplMsg(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for i := range data {
			if _, err := decodeReplMsg(data[:i]); err == nil {
				t.Errorf("%s: decoded truncated at byte %d of %d", name, i, len(data))
			}
		}
		if _, err := decodeReplMsg(append(data, 0)); err == nil {
			t.Errorf("%s: decoded with a trailing byte", name)
		}
		// The journal keeps the entry: nothing may alias the payload.
		for i := range data {
			data[i] = '#'
		}
		if len(msg.Entry.Reply) == 0 {
			msg.Entry.Reply = nil
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: got %+v, want %+v", name, got, msg)
		}
	}
}

func TestReplMsgRejectsUnknownKindAndStatus(t *testing.T) {
	for name, data := range map[string][]byte{
		"kind 0":    replog.AppendEntry([]byte{0}, &replog.Entry{Status: replog.StatusPrepared}),
		"kind 4":    replog.AppendEntry([]byte{4}, &replog.Entry{Status: replog.StatusPrepared}),
		"status 0":  replog.AppendEntry([]byte{byte(replKindPrepare)}, &replog.Entry{}),
		"status 7":  replog.AppendEntry([]byte{byte(replKindPrepare)}, &replog.Entry{Status: 7}),
		"old XML":   []byte(`<ReplogMsg Kind="prepare"><Entry Seq="1" Key="k" Status="1"></Entry></ReplogMsg>`),
		"empty":     nil,
		"kind only": {byte(replKindCommit)},
	} {
		if msg, err := decodeReplMsg(data); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: decoded %+v, %v; want wire.ErrMalformed", name, msg, err)
		}
	}
}

// TestStateRequestRoundTrip: ranks are zigzag varints, so a negative
// rank survives the trip.
func TestStateRequestRoundTrip(t *testing.T) {
	for _, q := range []stateRequest{
		{Name: "b2", Addr: "127.0.0.1:7102", Rank: 2, Pipe: "urn:jxta:pipe-replog-b2"},
		{Name: "b-1", Addr: "a:1", Rank: -1, Pipe: "p"},
		{Rank: -1 << 63},
		{},
	} {
		data := q.encode()
		got, err := decodeStateRequest(data)
		if err != nil || got != q {
			t.Errorf("%+v: got %+v, %v", q, got, err)
		}
		for i := range data {
			if _, err := decodeStateRequest(data[:i]); err == nil {
				t.Errorf("%+v: decoded truncated at byte %d of %d", q, i, len(data))
			}
		}
	}
}

func TestResolveAnswerRoundTrip(t *testing.T) {
	for name, a := range map[string]resolveAnswer{
		"executed":  {Status: replog.StatusExecuted, Reply: []byte("<ok/>")},
		"app error": {Status: replog.StatusCommitted, AppErr: "rejected"},
		"aborted":   {Status: replog.StatusAborted},
		"empty":     {Status: replog.StatusCommitted, Reply: []byte{}},
	} {
		data := a.encode()
		got, err := decodeResolveAnswer(data)
		if len(a.Reply) == 0 {
			a.Reply = nil
		}
		if err != nil || !reflect.DeepEqual(got, a) {
			t.Errorf("%s: got %+v, %v; want %+v", name, got, err, a)
		}
		for i := range data {
			if _, err := decodeResolveAnswer(data[:i]); err == nil {
				t.Errorf("%s: decoded truncated at byte %d of %d", name, i, len(data))
			}
		}
	}
	if _, err := decodeResolveAnswer((&resolveAnswer{Status: 0}).encode()); err == nil {
		t.Error("decoded an answer with status 0")
	}
}

// FuzzDecodeReplMsg: a follower decodes whatever arrives on its
// replication pipe, so arbitrary bytes must come back as an error or as
// a message that encodes and decodes to itself. The corpus in
// testdata/fuzz holds every kind, truncations and forged lengths.
func FuzzDecodeReplMsg(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeReplMsg(data)
		if err != nil {
			return
		}
		again, err := decodeReplMsg(msg.encode())
		if err != nil {
			t.Fatalf("re-encoded message does not decode: %v", err)
		}
		if !reflect.DeepEqual(msg, again) {
			t.Fatalf("round trip changed the message:\n first %+v\nsecond %+v", msg, again)
		}
	})
}

// BenchmarkReplicationCodec: one journaled write's replication traffic
// as the codec sees it — the coordinator encodes a PREPARE and a COMMIT,
// and each of two followers decodes both.
func BenchmarkReplicationCodec(b *testing.B) {
	prepare := replMsg{Kind: replKindPrepare, Entry: codecEntry(replog.StatusPrepared)}
	commit := replMsg{Kind: replKindCommit, Entry: codecEntry(replog.StatusCommitted)}
	commit.Entry.Reply = []byte("<StudentInfo><StudentID>S0001</StudentID><Name>Ada Lovelace</Name>" +
		"<Program>Computer Science</Program><Source>operational-db</Source></StudentInfo>")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, msg := range [...]*replMsg{&prepare, &commit} {
			data := msg.encode()
			for follower := 0; follower < 2; follower++ {
				if _, err := decodeReplMsg(data); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}
