package p2p

import (
	"fmt"
	"sync"

	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// Protocol tags used on the wire. The network's traffic accounting is
// keyed on these, which is what makes Figure 4's per-protocol
// breakdown possible.
const (
	ProtoResolver  = "resolver"
	ProtoDiscovery = "discovery"
	ProtoPipe      = "pipe"
	ProtoHeartbeat = "heartbeat"
	ProtoElection  = "election"
	ProtoGossip    = "gossip"
)

// Handler processes an inbound message for one protocol.
type Handler func(msg simnet.Message)

// Peer is a node in the overlay: it owns a transport, runs the receive
// loop and dispatches inbound messages to protocol handlers. All
// higher-level services (resolver, discovery, pipes, election,
// heartbeat) attach to a Peer.
type Peer struct {
	id   ID
	name string
	tr   simnet.Transport

	mu       sync.RWMutex
	handlers map[string]Handler
	tracer   *trace.Tracer
	started  bool
	closed   bool
	// status holds the sections of the peer's status answer, one per
	// role (ServeStatus); nil until the first.
	status map[string]func() any

	done chan struct{}
}

// NewPeer creates a peer over the given transport. Call Start after
// attaching protocol handlers.
func NewPeer(name string, id ID, tr simnet.Transport) *Peer {
	return &Peer{
		id:       id,
		name:     name,
		tr:       tr,
		handlers: make(map[string]Handler),
		done:     make(chan struct{}),
	}
}

// ID returns the peer's identifier.
func (p *Peer) ID() ID { return p.id }

// Name returns the peer's human-readable name.
func (p *Peer) Name() string { return p.name }

// Addr returns the transport address.
func (p *Peer) Addr() string { return p.tr.Addr() }

// Advertisement returns this peer's own peer advertisement.
func (p *Peer) Advertisement() *PeerAdvertisement {
	return &PeerAdvertisement{PID: p.id, Name: p.name, Addr: p.Addr()}
}

// SetTracer attaches a tracer to the node; services attached to the
// peer (pipes, resolver, election) pick it up to record spans. A nil
// tracer (the default) disables span recording.
func (p *Peer) SetTracer(t *trace.Tracer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.tracer = t
}

// Tracer returns the node's tracer (nil when tracing is off; a nil
// *trace.Tracer is itself safe to use).
func (p *Peer) Tracer() *trace.Tracer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.tracer
}

// Handle registers the handler for a protocol tag. Handlers must be
// registered before Start; registering after Start is allowed but
// racy deliveries to the old handler may occur.
func (p *Peer) Handle(proto string, h Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handlers[proto] = h
}

// Start launches the receive loop. It is idempotent.
func (p *Peer) Start() {
	p.mu.Lock()
	if p.started || p.closed {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go p.recvLoop()
}

// recvLoop dispatches every inbound message on its own goroutine, so a
// handler that itself performs a blocking query can never deadlock
// the receive loop. Close waits
// for all in-flight handlers via the wait group.
func (p *Peer) recvLoop() {
	defer close(p.done)
	var wg sync.WaitGroup
	for msg := range p.tr.Recv() {
		p.mu.RLock()
		h := p.handlers[msg.Proto]
		p.mu.RUnlock()
		if h == nil {
			continue
		}
		wg.Add(1)
		go func(m simnet.Message) {
			defer wg.Done()
			h(m)
		}(msg)
	}
	wg.Wait()
}

// Done returns a channel that is closed once the peer has shut down
// (the receive loop has drained after Close). Long-running maintenance
// goroutines owned by services attached to the peer — an index node's
// gossip engine, for example — select on it to stop with the peer.
func (p *Peer) Done() <-chan struct{} { return p.done }

// Send transmits a message to the given transport address.
func (p *Peer) Send(to string, msg simnet.Message) error {
	if err := p.tr.Send(to, msg); err != nil {
		return fmt.Errorf("peer %s: %w", p.name, err)
	}
	return nil
}

// Close shuts down the transport and waits for the receive loop to
// drain. Safe to call more than once.
func (p *Peer) Close() error {
	p.mu.Lock()
	if p.closed {
		started := p.started
		p.mu.Unlock()
		if started {
			<-p.done
		}
		return nil
	}
	p.closed = true
	started := p.started
	p.mu.Unlock()
	err := p.tr.Close()
	if started {
		<-p.done
	} else {
		close(p.done)
	}
	return err
}
