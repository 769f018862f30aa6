package p2p

import (
	"context"
	"reflect"
	"testing"
	"time"

	"whisper/internal/simnet"
)

// relayFixture: peers a and b are partitioned from each other but both
// reach relay r.
type relayFixture struct {
	net      *simnet.Network
	gen      *IDGen
	relay    *Peer
	a, b     *Peer
	aTr, bTr *RelayTransport
}

func newRelayFixture(t *testing.T) *relayFixture {
	t.Helper()
	f := &relayFixture{
		net: simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		gen: NewIDGen(1),
	}
	t.Cleanup(func() { _ = f.net.Close() })

	rPort, err := f.net.NewPort("relay")
	if err != nil {
		t.Fatalf("relay port: %v", err)
	}
	f.relay = NewPeer("relay", f.gen.New(PeerIDKind), rPort)
	NewRelayService(f.relay)
	f.relay.Start()
	t.Cleanup(func() { _ = f.relay.Close() })

	mk := func(name, other string) (*Peer, *RelayTransport) {
		port, err := f.net.NewPort(name)
		if err != nil {
			t.Fatalf("%s port: %v", name, err)
		}
		tr := NewRelayTransport(port, "relay", RelayFor(other))
		p := NewPeer(name, f.gen.New(PeerIDKind), tr)
		p.Start()
		t.Cleanup(func() { _ = p.Close() })
		return p, tr
	}
	f.a, f.aTr = mk("a", "b")
	f.b, f.bTr = mk("b", "a")

	// a and b cannot talk directly — only via the relay.
	f.net.Partition("a", "b")
	return f
}

func TestRelayCrossesPartition(t *testing.T) {
	f := newRelayFixture(t)
	got := make(chan simnet.Message, 1)
	f.b.Handle("app", func(m simnet.Message) { got <- m })

	if err := f.a.Send("b", simnet.Message{Proto: "app", Kind: "x", Payload: []byte("over the wall")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "over the wall" {
			t.Errorf("payload = %q", m.Payload)
		}
		if m.Src != "a" {
			t.Errorf("src = %q, want original sender a", m.Src)
		}
		if m.Hops != 1 {
			t.Errorf("hops = %d, want 1", m.Hops)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("relayed message never arrived")
	}
}

func TestRelayRoundTripQuery(t *testing.T) {
	f := newRelayFixture(t)
	ra := NewResolver(f.a)
	rb := NewResolver(f.b)
	rb.RegisterHandler("echo", func(_ string, payload []byte) ([]byte, error) {
		return append([]byte("re:"), payload...), nil
	})

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// The query goes a → relay → b; the response returns b → relay → a.
	resp, err := ra.Query(ctx, "b", "echo", []byte("ping"))
	if err != nil {
		t.Fatalf("query over relay: %v", err)
	}
	if string(resp) != "re:ping" {
		t.Errorf("resp = %q", resp)
	}
	// Without the relay the partition would have eaten the query:
	// verify relay traffic is accounted.
	if got := f.net.Stats().PerProto[ProtoRelay].Messages; got < 4 {
		t.Errorf("relay messages = %d, want >= 4 (fwd+dlv each way)", got)
	}
}

func TestRelayDirectDestinationsBypassRelay(t *testing.T) {
	f := newRelayFixture(t)
	got := make(chan simnet.Message, 1)
	f.relay.Handle("app", func(m simnet.Message) { got <- m })

	// a → relay is not in a's relay policy, so it goes direct.
	if err := f.a.Send("relay", simnet.Message{Proto: "app"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-got:
		if m.Hops != 0 {
			t.Errorf("direct message hops = %d", m.Hops)
		}
	case <-time.After(time.Second):
		t.Fatal("direct message lost")
	}
}

func TestRelayAlwaysPolicy(t *testing.T) {
	p := RelayAlways()
	if !p("anyone") || !p("") {
		t.Error("RelayAlways should match everything")
	}
	f := RelayFor("x", "y")
	if !f("x") || !f("y") || f("z") {
		t.Error("RelayFor set membership wrong")
	}
}

func TestRelayHopLimit(t *testing.T) {
	// A forwarded envelope already at the hop limit must be dropped.
	f := newRelayFixture(t)
	inner := simnet.Message{Proto: "app", Src: "a", Dst: "b", Hops: MaxRelayHops}
	wrapped, err := encodeRelayed(inner)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got := make(chan simnet.Message, 1)
	f.b.Handle("app", func(m simnet.Message) { got <- m })
	// Bypass the policy and hand the envelope to the relay directly.
	if err := f.a.Send("relay", simnet.Message{Proto: ProtoRelay, Kind: kindRelayForward, Payload: wrapped}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-got:
		t.Error("over-hopped message was delivered")
	case <-time.After(100 * time.Millisecond):
	}
}

func TestRelayTransportCloseIdempotent(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	t.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("x")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	tr := NewRelayTransport(port, "relay", nil)
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, ok := <-tr.Recv(); ok {
		t.Error("recv open after close")
	}
}

func TestRelayMalformedEnvelopeDropped(t *testing.T) {
	f := newRelayFixture(t)
	// Garbage payload must not crash the relay.
	if err := f.a.Send("relay", simnet.Message{Proto: ProtoRelay, Kind: kindRelayForward, Payload: []byte("garbage")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	// Relay is still alive.
	got := make(chan simnet.Message, 1)
	f.b.Handle("app", func(m simnet.Message) { got <- m })
	if err := f.a.Send("b", simnet.Message{Proto: "app", Payload: []byte("still works")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-got:
	case <-time.After(2 * time.Second):
		t.Fatal("relay died on malformed envelope")
	}
}

// A message in pump's hand when Close runs (a peer closed before Start,
// a consumer that stopped reading) must not keep Close waiting.
func TestRelayTransportCloseWithUndrainedRecv(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	a, err := net.NewPort("a")
	if err != nil {
		t.Fatalf("port a: %v", err)
	}
	b, err := net.NewPort("b")
	if err != nil {
		t.Fatalf("port b: %v", err)
	}
	tr := NewRelayTransport(b, "relay", RelayAlways())
	if err := a.Send("b", simnet.Message{Proto: "app"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	// Let the message reach pump; nobody reads tr.Recv().
	for net.Stats().Total.Messages == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- tr.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("close: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close still waiting for pump after 2 s")
	}
}

// FuzzDecodeRelayed: a relay forwards whatever envelope it is handed, so
// arbitrary bytes must come back as an error or as a message that takes
// the relay's hop (count it, wrap it again) and arrives otherwise
// unchanged.
func FuzzDecodeRelayed(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := decodeRelayed(data)
		if err != nil {
			return
		}
		msg.Hops++
		wrapped, err := encodeRelayed(msg)
		if err != nil {
			t.Fatalf("decoded message does not encode: %v", err)
		}
		delivered, err := decodeRelayed(wrapped)
		if err != nil {
			t.Fatalf("forwarded envelope does not decode: %v", err)
		}
		if !reflect.DeepEqual(msg, delivered) {
			t.Fatalf("hop changed the message:\n forwarded %+v\n delivered %+v", msg, delivered)
		}
	})
}
