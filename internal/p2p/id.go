// Package p2p implements a JXTA-like peer-to-peer overlay: peers with
// protocol dispatch, XML advertisements with an extensible type
// registry, a resolver (query/response), a discovery service with a
// local advertisement cache and remote queries, index nodes replicating
// advertisements and group memberships by gossip, unicast and propagate
// pipes, and a heartbeat failure detector.
//
// The paper deploys Whisper on JXTA 2.3; this package reproduces the
// protocol surface Whisper uses (discovery, advertisements, pipes,
// peer groups) over the simnet.Transport abstraction, so the overlay
// runs identically on the simulated LAN and on real TCP.
package p2p

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
)

// ID is a JXTA-style URN identifying a peer, group or pipe.
type ID string

// String returns the URN form.
func (id ID) String() string { return string(id) }

// IDKind enumerates the resource kinds that carry IDs.
type IDKind int

// Resource kinds.
const (
	PeerIDKind IDKind = iota + 1
	GroupIDKind
	PipeIDKind
)

func (k IDKind) prefix() string {
	switch k {
	case PeerIDKind:
		return "urn:jxta:peer"
	case GroupIDKind:
		return "urn:jxta:group"
	case PipeIDKind:
		return "urn:jxta:pipe"
	default:
		return "urn:jxta:id"
	}
}

// IDGen mints unique IDs. With a zero seed it uses crypto/rand; with a
// non-zero seed it is deterministic (useful in tests and benchmarks).
type IDGen struct {
	mu      sync.Mutex
	seed    int64
	counter int64
}

// NewIDGen returns a generator. seed==0 selects random IDs.
func NewIDGen(seed int64) *IDGen { return &IDGen{seed: seed} }

// New mints an ID of the given kind.
func (g *IDGen) New(kind IDKind) ID {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.counter++
	if g.seed != 0 {
		return ID(fmt.Sprintf("%s-uuid-%016x%016x", kind.prefix(), uint64(g.seed), uint64(g.counter)))
	}
	var buf [16]byte
	if _, err := rand.Read(buf[:]); err != nil {
		// crypto/rand never fails on supported platforms; fall back to
		// the counter so IDs stay unique within the process.
		return ID(kind.prefix() + "-uuid-fallback" + strconv.FormatInt(g.counter, 16))
	}
	return ID(kind.prefix() + "-uuid-" + hex.EncodeToString(buf[:]))
}
