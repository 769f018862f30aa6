// Package simnet provides an in-process simulated LAN used as the
// transport substrate for the Whisper P2P overlay, plus a real TCP
// loopback transport with the same interface.
//
// The simulated network models per-link latency, jitter, loss and
// partitions, and keeps per-protocol message and byte counters. The
// paper's evaluation (Figure 4 and the RTT analysis in §5) measures
// exactly these two quantities, so the network exposes them as a
// first-class Stats snapshot.
package simnet

import (
	"fmt"
	"time"
)

// Message is the unit of exchange between transport endpoints.
//
// Proto tags the protocol that produced the message (for example
// "discovery", "election", "heartbeat", "pipe"); the network accounts
// messages and bytes per tag so benchmarks can break down traffic the
// way Figure 4 of the paper does.
type Message struct {
	// Proto is the protocol category used for traffic accounting.
	Proto string
	// Kind is the message type within the protocol (for example
	// "query", "response", "election", "coordinator").
	Kind string
	// Src and Dst are transport addresses.
	Src string
	Dst string
	// Headers carries small string metadata (correlation IDs and the
	// like). It may be nil.
	Headers map[string]string
	// Payload is the opaque body, typically XML.
	Payload []byte
	// SentAt is stamped by the transport when the message is sent.
	SentAt time.Time
	// Hops counts relay traversals in multi-hop routing.
	Hops int
}

// Size returns the accounted wire size of the message in bytes: payload
// plus an approximation of header overhead. It is deliberately simple
// and deterministic so benchmark byte counts are reproducible, and it
// is the same on both substrates. Where this counts 16 the TCP frame
// (frame.go) spends 12 — 4 length prefix, 6 one-byte lengths, 1 SentAt
// (TCP does not stamp it; 9 when stamped), 1 Hops — plus a byte for each
// string or payload of 128 bytes and more, and the same 2 per header.
func (m *Message) Size() int {
	n := len(m.Payload) + len(m.Proto) + len(m.Kind) + len(m.Src) + len(m.Dst) + 16
	for k, v := range m.Headers {
		n += len(k) + len(v) + 2
	}
	return n
}

// Header returns the named header or "" when absent.
func (m *Message) Header(key string) string {
	if m.Headers == nil {
		return ""
	}
	return m.Headers[key]
}

// WithHeader returns a shallow copy of the message with the header set.
// The original message is not modified.
func (m Message) WithHeader(key, value string) Message {
	hs := make(map[string]string, len(m.Headers)+1)
	for k, v := range m.Headers {
		hs[k] = v
	}
	hs[key] = value
	m.Headers = hs
	return m
}

func (m *Message) String() string {
	return fmt.Sprintf("%s/%s %s->%s (%dB)", m.Proto, m.Kind, m.Src, m.Dst, m.Size())
}
