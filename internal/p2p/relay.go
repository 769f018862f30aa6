package p2p

import (
	"sync"

	"whisper/internal/simnet"
)

// The paper's §5 credits JXTA with "enabling multi-hop routing of
// messages, and traversing firewall or NAT equipment that isolates
// peers from public networks". This file reproduces that capability:
// a RelayService runs on a publicly reachable peer (typically the
// rendezvous) and forwards opaque messages between peers that cannot
// reach each other directly; RelayTransport wraps a peer's transport
// so selected (or all) destinations are reached through the relay,
// transparently to every protocol above it.

// ProtoRelay tags relay forwarding traffic.
const ProtoRelay = "relay"

// Relay message kinds.
const (
	kindRelayForward = "fwd"
	kindRelayDeliver = "dlv"
)

// MaxRelayHops bounds forwarding chains (loop protection).
const MaxRelayHops = 8

// RelayService forwards wrapped messages to their final destination.
// Attach it to a publicly reachable peer.
type RelayService struct {
	peer *Peer
}

// NewRelayService attaches the relay role to the peer.
func NewRelayService(peer *Peer) *RelayService {
	s := &RelayService{peer: peer}
	peer.Handle(ProtoRelay, s.handleMessage)
	return s
}

func (s *RelayService) handleMessage(msg simnet.Message) {
	if msg.Kind != kindRelayForward {
		return
	}
	inner, err := decodeRelayed(msg.Payload)
	if err != nil {
		return // malformed envelope; drop like a router would
	}
	inner.Hops++
	if inner.Hops > MaxRelayHops {
		return // loop protection
	}
	wrapped, err := encodeRelayed(inner)
	if err != nil {
		return
	}
	// Best effort: the destination may be gone.
	_ = s.peer.Send(inner.Dst, simnet.Message{
		Proto:   ProtoRelay,
		Kind:    kindRelayDeliver,
		Payload: wrapped,
	})
}

// A relayed message travels as its wire frame (simnet/frame.go).
func encodeRelayed(msg simnet.Message) ([]byte, error) { return simnet.AppendFrame(nil, &msg) }

func decodeRelayed(data []byte) (simnet.Message, error) { return simnet.DecodeFrame(data) }

// RelayPolicy decides whether a destination is reached via the relay.
type RelayPolicy func(dst string) bool

// RelayAlways routes every destination through the relay (a peer fully
// isolated behind NAT).
func RelayAlways() RelayPolicy { return func(string) bool { return true } }

// RelayFor routes only the listed destinations through the relay.
func RelayFor(dsts ...string) RelayPolicy {
	set := make(map[string]bool, len(dsts))
	for _, d := range dsts {
		set[d] = true
	}
	return func(dst string) bool { return set[dst] }
}

// RelayTransport wraps a transport so destinations selected by the
// policy are reached via a relay peer. Inbound relayed envelopes are
// unwrapped transparently, so protocol code sees the original message
// (original Src, incremented Hops). Both endpoints of a relayed
// exchange must use a RelayTransport (replies route back through the
// relay by the same policy).
type RelayTransport struct {
	inner     simnet.Transport
	relayAddr string
	policy    RelayPolicy

	out  chan simnet.Message
	stop chan struct{} // closed by Close: pump gives up an undelivered message
	done chan struct{} // closed when pump has exited

	closeOnce sync.Once
}

var _ simnet.Transport = (*RelayTransport)(nil)

// NewRelayTransport wraps inner. relayAddr is the relay peer's
// address; policy selects which destinations are relayed.
func NewRelayTransport(inner simnet.Transport, relayAddr string, policy RelayPolicy) *RelayTransport {
	if policy == nil {
		policy = func(string) bool { return false }
	}
	t := &RelayTransport{
		inner:     inner,
		relayAddr: relayAddr,
		policy:    policy,
		out:       make(chan simnet.Message),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	go t.pump()
	return t
}

// Addr implements simnet.Transport.
func (t *RelayTransport) Addr() string { return t.inner.Addr() }

// Send implements simnet.Transport.
func (t *RelayTransport) Send(to string, msg simnet.Message) error {
	if !t.policy(to) || to == t.relayAddr {
		return t.inner.Send(to, msg)
	}
	msg.Src = t.inner.Addr()
	msg.Dst = to
	wrapped, err := encodeRelayed(msg)
	if err != nil {
		return err
	}
	return t.inner.Send(t.relayAddr, simnet.Message{
		Proto:   ProtoRelay,
		Kind:    kindRelayForward,
		Payload: wrapped,
	})
}

// Recv implements simnet.Transport.
func (t *RelayTransport) Recv() <-chan simnet.Message { return t.out }

// Close implements simnet.Transport.
func (t *RelayTransport) Close() error {
	var err error
	t.closeOnce.Do(func() {
		close(t.stop)
		err = t.inner.Close()
		<-t.done
	})
	return err
}

// pump unwraps relayed deliveries and passes everything else through.
func (t *RelayTransport) pump() {
	defer close(t.done)
	defer close(t.out)
	for msg := range t.inner.Recv() {
		if msg.Proto == ProtoRelay && msg.Kind == kindRelayDeliver {
			inner, err := decodeRelayed(msg.Payload)
			if err != nil {
				continue
			}
			msg = inner
		}
		select {
		case t.out <- msg:
		case <-t.stop:
			return
		}
	}
}
