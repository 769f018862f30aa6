package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Network is an in-process simulated LAN. Endpoints are created with
// NewPort; messages are delivered asynchronously after a delay computed
// by the latency model, subject to loss, per-link faults and
// partitions. All methods are safe for concurrent use.
type Network struct {
	mu          sync.Mutex
	ports       map[string]*Port
	latency     LatencyModel
	dropRate    float64
	dupRate     float64
	corruptRate float64
	rng         *rand.Rand
	partitions  map[linkKey]struct{}
	linkDelay   map[linkKey]time.Duration
	linkDrop    map[linkKey]float64
	linkDup     map[linkKey]float64
	linkCorrupt map[linkKey]float64
	closed      bool
	wg          sync.WaitGroup
	sched       *scheduler
	clock       Clock

	stats *statsCollector
}

type linkKey struct{ a, b string }

func orderedLink(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a: a, b: b}
}

// Option configures a Network.
type Option func(*Network)

// WithLatency sets the latency model. The default is NewLANModel(1).
func WithLatency(m LatencyModel) Option {
	return func(n *Network) { n.latency = m }
}

// WithDropRate sets the global probability in [0,1) that any message is
// silently lost.
func WithDropRate(p float64) Option {
	return func(n *Network) { n.dropRate = p }
}

// WithDuplicateRate sets the global probability in [0,1) that any
// message is delivered twice (the second copy with its own latency
// sample), modelling at-least-once links and retransmitting NICs.
func WithDuplicateRate(p float64) Option {
	return func(n *Network) { n.dupRate = p }
}

// WithCorruptRate sets the global probability in [0,1) that a message's
// payload is bit-flipped in flight. Corrupted payloads reach the
// destination; detecting and rejecting them is the receiver's job.
func WithCorruptRate(p float64) Option {
	return func(n *Network) { n.corruptRate = p }
}

// WithSeed seeds the network's random source (loss decisions).
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// WithClock injects the network's time source (timestamping and
// delivery scheduling). The default is WallClock.
func WithClock(c Clock) Option {
	return func(n *Network) { n.clock = c }
}

// NewNetwork creates an empty simulated network.
func NewNetwork(opts ...Option) *Network {
	n := &Network{
		ports:       make(map[string]*Port),
		latency:     NewLANModel(1),
		rng:         rand.New(rand.NewSource(1)),
		partitions:  make(map[linkKey]struct{}),
		linkDelay:   make(map[linkKey]time.Duration),
		linkDrop:    make(map[linkKey]float64),
		linkDup:     make(map[linkKey]float64),
		linkCorrupt: make(map[linkKey]float64),
		stats:       newStatsCollector(),
		clock:       WallClock{},
	}
	for _, opt := range opts {
		opt(n)
	}
	// The scheduler reads the injected clock, so it is built after the
	// options have run.
	n.sched = newScheduler(n.clock)
	return n
}

// NewPort registers a new endpoint under the given address.
func (n *Network) NewPort(addr string) (*Port, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrClosed
	}
	if _, exists := n.ports[addr]; exists {
		return nil, fmt.Errorf("simnet: address %q already in use", addr)
	}
	p := newPort(n, addr)
	n.ports[addr] = p
	return p, nil
}

// Stats returns a snapshot of delivered/dropped traffic per protocol.
func (n *Network) Stats() Stats { return n.stats.snapshot() }

// ResetStats zeroes all traffic counters. Benchmarks call this between
// the warm-up and the measured phase.
func (n *Network) ResetStats() { n.stats.reset() }

// Partition blocks all traffic between the two addresses, in both
// directions, until Heal is called.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partitions[orderedLink(a, b)] = struct{}{}
}

// Heal removes a partition between two addresses.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.partitions, orderedLink(a, b))
}

// Isolate partitions addr from every currently registered port.
func (n *Network) Isolate(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.ports {
		if other != addr {
			n.partitions[orderedLink(addr, other)] = struct{}{}
		}
	}
}

// Rejoin heals every partition involving addr.
func (n *Network) Rejoin(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for key := range n.partitions {
		if key.a == addr || key.b == addr {
			delete(n.partitions, key)
		}
	}
}

// SetLinkDelay adds a fixed extra one-way delay on the link between two
// addresses (both directions). A zero duration removes the override.
func (n *Network) SetLinkDelay(a, b string, d time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := orderedLink(a, b)
	if d <= 0 {
		delete(n.linkDelay, key)
		return
	}
	n.linkDelay[key] = d
}

// SetLinkDropRate sets a per-link loss probability overriding the
// global rate. A negative value removes the override.
func (n *Network) SetLinkDropRate(a, b string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := orderedLink(a, b)
	if p < 0 {
		delete(n.linkDrop, key)
		return
	}
	n.linkDrop[key] = p
}

// SetLinkDuplicateRate sets a per-link duplication probability
// overriding the global rate. A negative value removes the override.
func (n *Network) SetLinkDuplicateRate(a, b string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := orderedLink(a, b)
	if p < 0 {
		delete(n.linkDup, key)
		return
	}
	n.linkDup[key] = p
}

// SetLinkCorruptRate sets a per-link payload-corruption probability
// overriding the global rate. A negative value removes the override.
func (n *Network) SetLinkCorruptRate(a, b string, p float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	key := orderedLink(a, b)
	if p < 0 {
		delete(n.linkCorrupt, key)
		return
	}
	n.linkCorrupt[key] = p
}

// Close shuts down the network and every registered port, and waits
// for all in-flight deliveries to settle.
func (n *Network) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	ports := make([]*Port, 0, len(n.ports))
	for _, p := range n.ports {
		ports = append(ports, p)
	}
	n.mu.Unlock()
	for _, p := range ports {
		_ = p.Close()
	}
	// Flush scheduled deliveries (they land on closed ports and are
	// swallowed) so the wait group settles.
	n.sched.close()
	n.wg.Wait()
	return nil
}

// send is called by ports. It applies loss/partition policy, computes
// the delay and schedules asynchronous delivery.
func (n *Network) send(msg Message) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	dst, ok := n.ports[msg.Dst]
	if !ok {
		n.mu.Unlock()
		return fmt.Errorf("simnet: send to %q: %w", msg.Dst, ErrUnknownAddr)
	}
	key := orderedLink(msg.Src, msg.Dst)
	if _, cut := n.partitions[key]; cut {
		n.mu.Unlock()
		n.stats.recordDropped(msg.Proto)
		return nil
	}
	drop := n.dropRate
	if p, ok := n.linkDrop[key]; ok {
		drop = p
	}
	if drop > 0 && n.rng.Float64() < drop {
		n.mu.Unlock()
		n.stats.recordDropped(msg.Proto)
		return nil
	}
	dup := n.dupRate
	if p, ok := n.linkDup[key]; ok {
		dup = p
	}
	duplicated := dup > 0 && n.rng.Float64() < dup
	corrupt := n.corruptRate
	if p, ok := n.linkCorrupt[key]; ok {
		corrupt = p
	}
	if corrupt > 0 && len(msg.Payload) > 0 && n.rng.Float64() < corrupt {
		msg.Payload = corruptPayload(msg.Payload, n.rng)
		n.stats.recordCorrupted(msg.Proto)
	}
	extra := n.linkDelay[key]
	n.mu.Unlock()

	msg.SentAt = n.clock.Now()
	size := msg.Size()
	// Count before handing over: a receiver that has seen the message
	// (or its sender, the reply) finds it in Stats.
	n.stats.recordDelivered(msg.Proto, size)
	n.deliverAfter(msg, dst, n.latency.Delay(msg.Src, msg.Dst, size)+extra)
	if duplicated {
		// The duplicate takes its own latency sample, so copies can
		// arrive out of order — receivers must tolerate replays.
		n.stats.recordDelivered(msg.Proto, size)
		n.stats.recordDuplicated(msg.Proto)
		n.deliverAfter(msg, dst, n.latency.Delay(msg.Src, msg.Dst, size)+extra)
	}
	return nil
}

// deliverAfter schedules one asynchronous delivery of msg to dst.
func (n *Network) deliverAfter(msg Message, dst *Port, delay time.Duration) {
	n.wg.Add(1)
	deliver := func() {
		defer n.wg.Done()
		// Re-check the destination: it may have closed while the
		// message was in flight; a closed port swallows the message,
		// exactly like a dead NIC.
		n.mu.Lock()
		cur, ok := n.ports[msg.Dst]
		n.mu.Unlock()
		if ok && cur == dst {
			dst.enqueue(msg)
		}
	}
	if delay <= 0 {
		go deliver()
	} else {
		// The scheduler beats the platform's ~1ms timer granularity,
		// which matters for the LAN model's 250µs one-way delays.
		n.sched.schedule(msg.SentAt.Add(delay), deliver)
	}
}

// corruptPayload returns a copy of the payload with one to three bytes
// bit-flipped at positions drawn from rng (called with the network lock
// held, so corruption decisions stay seed-deterministic).
func corruptPayload(payload []byte, rng *rand.Rand) []byte {
	out := append([]byte(nil), payload...)
	flips := 1 + rng.Intn(3)
	for i := 0; i < flips; i++ {
		out[rng.Intn(len(out))] ^= 0xFF
	}
	return out
}

// release removes a closed port from the address table.
func (n *Network) release(addr string, p *Port) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if cur, ok := n.ports[addr]; ok && cur == p {
		delete(n.ports, addr)
	}
}

// Addrs returns the currently registered addresses, in no particular
// order.
func (n *Network) Addrs() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.ports))
	for a := range n.ports {
		out = append(out, a)
	}
	return out
}
