package gossip

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"whisper/internal/simnet"
)

// Transport carries one gossip exchange to a peer and returns its
// reply. The p2p layer implements it with a resolver query on the
// gossip protocol tag, so every frame is accounted in the simulated
// network's per-protocol traffic breakdown.
type Transport interface {
	Exchange(ctx context.Context, to, kind string, payload []byte) ([]byte, error)
}

// Exchange kinds.
const (
	// KindPush carries a rumor batch; the reply is a bitmap of entries
	// the receiver already knew.
	KindPush = "push"
	// KindSync carries a fixed 8-byte resume cursor followed by the
	// initiator's digest; the reply is the next cursor (0 when the
	// responder's delta was not truncated), the responder's digest,
	// then the entries the initiator lacks starting at the cursor.
	KindSync = "sync"
	// KindDelta carries the entries the responder lacked (the second
	// leg of a sync); the reply is empty.
	KindDelta = "delta"
)

// Config tunes an Engine.
type Config struct {
	// Self is this shard's address; it is excluded from peer
	// selection.
	Self string
	// Transport carries exchanges; required.
	Transport Transport
	// Store is the replicated set the engine maintains; required.
	Store *Store
	// Clock supplies time for version minting and expiry sweeps; nil
	// selects the wall clock.
	Clock simnet.Clock
	// Seed makes peer selection and round jitter deterministic.
	Seed int64
	// Interval is the rumor-mongering round period (default 25ms).
	Interval time.Duration
	// ReconcileInterval is the anti-entropy digest period (default
	// 8x Interval).
	ReconcileInterval time.Duration
	// Fanout is how many peers each rumor round pushes to (default 2).
	Fanout int
	// RetireAfter retires a rumor once this many push recipients
	// already knew it (default 2) — Karp-style feedback aging.
	RetireAfter int
	// MaxBatch bounds entries per push frame (default 512).
	MaxBatch int
	// MaxDelta bounds entries per delta frame (default 4096).
	MaxDelta int
	// ExchangeTimeout bounds one exchange round trip (default 500ms).
	ExchangeTimeout time.Duration
}

func (c *Config) applyDefaults() {
	if c.Clock == nil {
		c.Clock = simnet.WallClock{}
	}
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.ReconcileInterval <= 0 {
		c.ReconcileInterval = 8 * c.Interval
	}
	if c.Fanout <= 0 {
		c.Fanout = 2
	}
	if c.RetireAfter <= 0 {
		c.RetireAfter = 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 512
	}
	if c.MaxDelta <= 0 {
		c.MaxDelta = 4096
	}
	if c.ExchangeTimeout <= 0 {
		c.ExchangeTimeout = 500 * time.Millisecond
	}
}

// rumor is one fresh entry being mongered: the key plus the feedback
// counter that retires it.
type rumor struct {
	key  string
	cold int
}

// EngineStats snapshots an engine.
type EngineStats struct {
	// Rounds and Reconciles count completed rumor and digest rounds.
	Rounds, Reconciles uint64
	// QueueDepth is the current rumor queue length.
	QueueDepth int
	// RumorsQueued and RumorsRetired count queue turnover.
	RumorsQueued, RumorsRetired uint64
	// PushesSent / PushFailures count outgoing rumor frames.
	PushesSent, PushFailures uint64
	// EntriesPushed counts entries carried by outgoing pushes.
	EntriesPushed uint64
	// DeltaSent / DeltaRecv count entries exchanged by reconciliation.
	DeltaSent, DeltaRecv uint64
	// Peers is the current peer-set size.
	Peers int
}

// Engine drives one shard's gossip: a rumor-mongering loop pushing
// fresh entries to Fanout random peers per round, and a slower
// anti-entropy loop reconciling digests pairwise. Both are seeded and
// clock-injected, so a seed fully determines peer selection.
type Engine struct {
	cfg Config

	mu      sync.Mutex
	peers   []string
	queue   []rumor
	queued  map[string]bool
	rng     *rand.Rand
	stats   EngineStats
	started bool

	// Per-peer delta resume cursors: pullCursor is the offset this
	// engine asks the peer to resume its delta at (carried in the sync
	// request), pushCursor is where this engine resumes its own
	// second-leg delta to the peer. Both reset to zero once a delta
	// fits its frame, so the rotation re-covers anything a shifting
	// sequence skipped.
	pullCursor map[string]uint64
	pushCursor map[string]int

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Scratch buffers reused across rounds so the steady-state loops
	// don't allocate frames.
	digestBuf []byte
	deltaBuf  []byte
	parseBuf  []DigestEntry
}

// NewEngine creates an engine; call Run to start its loops.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Transport == nil {
		return nil, fmt.Errorf("gossip: config requires a Transport")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("gossip: config requires a Store")
	}
	cfg.applyDefaults()
	return &Engine{
		cfg:        cfg,
		queued:     make(map[string]bool),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		stopCh:     make(chan struct{}),
		pullCursor: make(map[string]uint64),
		pushCursor: make(map[string]int),
	}, nil
}

// Store returns the engine's store.
func (e *Engine) Store() *Store { return e.cfg.Store }

// SetPeers replaces the peer set (self is filtered out). Called on
// membership change; the ring rebalance at the routing layer is
// driven from the same membership event.
func (e *Engine) SetPeers(peers []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.peers = e.peers[:0]
	for _, p := range peers {
		if p != e.cfg.Self {
			e.peers = append(e.peers, p)
		}
	}
	e.stats.Peers = len(e.peers)
	// Cursors are positions in a specific peer's dialogue; drop state
	// for peers that left so a later rejoin starts from zero.
	for p := range e.pullCursor {
		if !containsString(e.peers, p) {
			delete(e.pullCursor, p)
		}
	}
	for p := range e.pushCursor {
		if !containsString(e.peers, p) {
			delete(e.pushCursor, p)
		}
	}
}

func containsString(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// Learn merges an entry and, when it is news, enqueues it for rumor
// mongering. Version refreshes of keys the store already holds spread
// through reconciliation instead — steady-state lease refreshes must
// not occupy the rumor queue.
func (e *Engine) Learn(entry Entry) ApplyResult {
	res := e.cfg.Store.Apply(entry)
	if res.Applied && (res.New || !res.Live) {
		e.enqueue(entry.Key)
	}
	return res
}

func (e *Engine) enqueue(key string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.queued[key] {
		return
	}
	e.queued[key] = true
	e.queue = append(e.queue, rumor{key: key})
	e.stats.RumorsQueued++
	e.stats.QueueDepth = len(e.queue)
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.QueueDepth = len(e.queue)
	s.Peers = len(e.peers)
	return s
}

// Run starts the rumor and reconciliation loops. Idempotent.
func (e *Engine) Run() {
	e.mu.Lock()
	if e.started {
		e.mu.Unlock()
		return
	}
	e.started = true
	e.mu.Unlock()
	e.wg.Add(1)
	go e.loop()
}

// Stop halts the loops and waits for them. Idempotent.
func (e *Engine) Stop() {
	e.stopOnce.Do(func() { close(e.stopCh) })
	e.wg.Wait()
}

// lifeCtx is the engine's lifecycle context: done once Stop runs.
// Exchange contexts derive from it, so stopping the engine cancels
// in-flight rounds instead of waiting out their timeouts — the
// engine's root context is its own lifecycle, never a detached
// context.Background().
type lifeCtx struct{ e *Engine }

func (c lifeCtx) Deadline() (deadline time.Time, ok bool) { return time.Time{}, false }

func (c lifeCtx) Done() <-chan struct{} { return c.e.stopCh }

func (c lifeCtx) Err() error {
	select {
	case <-c.e.stopCh:
		return context.Canceled
	default:
		return nil
	}
}

func (c lifeCtx) Value(key any) any { return nil }

// loop multiplexes the two cadences on one goroutine: rumor rounds at
// Interval (jittered ±25% so co-located shards don't beat in
// lockstep) and digest reconciliation at ReconcileInterval.
func (e *Engine) loop() {
	defer e.wg.Done()
	rumorT := time.NewTimer(e.jittered(e.cfg.Interval))
	reconT := time.NewTimer(e.jittered(e.cfg.ReconcileInterval))
	defer rumorT.Stop()
	defer reconT.Stop()
	for {
		select {
		case <-rumorT.C:
			e.cfg.Store.SweepExpired()
			e.rumorRound()
			rumorT.Reset(e.jittered(e.cfg.Interval))
		case <-reconT.C:
			e.reconcileRound()
			reconT.Reset(e.jittered(e.cfg.ReconcileInterval))
		case <-e.stopCh:
			return
		}
	}
}

// jittered returns d ± 25%, from the seeded rng.
func (e *Engine) jittered(d time.Duration) time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return d + time.Duration(e.rng.Int63n(int64(d)/2+1)) - d/4
}

// rumorRound pushes the head of the rumor queue to Fanout random
// peers and ages each rumor by how many recipients already knew it.
func (e *Engine) rumorRound() {
	e.mu.Lock()
	e.stats.Rounds++
	if len(e.peers) == 0 {
		// Nobody to tell (a ring of one): every rumor is old news. A peer
		// that joins later learns the entries through reconciliation.
		e.stats.RumorsRetired += uint64(len(e.queue))
		e.queue = e.queue[:0]
		clear(e.queued)
	}
	if len(e.queue) == 0 {
		e.mu.Unlock()
		return
	}
	n := len(e.queue)
	if n > e.cfg.MaxBatch {
		n = e.cfg.MaxBatch
	}
	keys := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = e.queue[i].key
	}
	targets := e.pickPeersLocked(e.cfg.Fanout)
	e.mu.Unlock()

	// Encode the current state of each rumored key; keys whose entry
	// was GC'd between enqueue and send drop out of the frame and
	// retire immediately (old news by definition).
	var body []byte
	slotOf := make(map[string]int, n) // key -> frame slot
	for _, k := range keys {
		if ent, ok := e.cfg.Store.Get(k); ok {
			slotOf[k] = len(slotOf)
			body = AppendEntry(body, &ent)
		}
	}
	frame := AppendEntryCount(make([]byte, 0, len(body)+10), len(slotOf))
	frame = append(frame, body...)

	// known[i] accumulates how many targets already knew frame slot i.
	known := make([]int, len(slotOf))
	okTargets := 0
	for _, t := range targets {
		ctx, cancel := context.WithTimeout(lifeCtx{e}, e.cfg.ExchangeTimeout)
		reply, err := e.cfg.Transport.Exchange(ctx, t, KindPush, frame)
		cancel()
		e.mu.Lock()
		if err != nil {
			e.stats.PushFailures++
			e.mu.Unlock()
			continue
		}
		e.stats.PushesSent++
		e.stats.EntriesPushed += uint64(len(slotOf))
		e.mu.Unlock()
		okTargets++
		for i := range known {
			if i/8 < len(reply) && reply[i/8]&(1<<(i%8)) != 0 {
				known[i]++
			}
		}
	}

	// Age: a rumor whose push found only already-informed peers cools;
	// retire once cold enough (feedback aging).
	e.mu.Lock()
	defer e.mu.Unlock()
	kept := e.queue[:0]
	headKept := 0
	for i := range e.queue {
		r := e.queue[i]
		if i < n {
			slot, inFrame := slotOf[r.key]
			if !inFrame {
				delete(e.queued, r.key)
				e.stats.RumorsRetired++
				continue
			}
			if okTargets > 0 && known[slot] == okTargets {
				r.cold++
			}
			if okTargets > 0 && r.cold >= e.cfg.RetireAfter {
				delete(e.queued, r.key)
				e.stats.RumorsRetired++
				continue
			}
			headKept++
		}
		kept = append(kept, r)
	}
	// Rotate surviving head rumors to the back so a deep queue cycles
	// through every rumor instead of starving the tail.
	if headKept > 0 && headKept < len(kept) {
		rotated := make([]rumor, 0, len(kept))
		rotated = append(rotated, kept[headKept:]...)
		rotated = append(rotated, kept[:headKept]...)
		kept = rotated
	}
	e.queue = kept
	e.stats.QueueDepth = len(e.queue)
}

// reconcileRound runs one pairwise anti-entropy exchange: send our
// digest (with the resume cursor for the peer's delta), apply the
// peer's delta, then push back what the peer's digest proves it lacks,
// resuming our own delta where the last truncated frame left off.
func (e *Engine) reconcileRound() {
	e.mu.Lock()
	e.stats.Reconciles++
	targets := e.pickPeersLocked(1)
	digestBuf := e.digestBuf[:0]
	e.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	peer := targets[0]
	e.mu.Lock()
	resume := e.pullCursor[peer]
	e.mu.Unlock()

	req := append(digestBuf, make([]byte, 8)...)
	binary.LittleEndian.PutUint64(req[:8], resume)
	req = e.cfg.Store.AppendDigest(req)
	ctx, cancel := context.WithTimeout(lifeCtx{e}, e.cfg.ExchangeTimeout)
	reply, err := e.cfg.Transport.Exchange(ctx, peer, KindSync, req)
	cancel()
	e.mu.Lock()
	e.digestBuf = req
	parseBuf := e.parseBuf[:0]
	deltaBuf := e.deltaBuf[:0]
	e.mu.Unlock()
	if err != nil || len(reply) < 8 {
		return
	}

	// Reply: [next resume cursor][peer digest][entries we lack].
	next := binary.LittleEndian.Uint64(reply)
	peerDigest, off, err := ParseDigest(parseBuf, reply[8:])
	if err != nil {
		return
	}
	applied := e.applyFrameEntries(reply[8+off:])
	e.mu.Lock()
	if next > 0 {
		e.pullCursor[peer] = next
	} else {
		delete(e.pullCursor, peer)
	}
	skip := e.pushCursor[peer]
	e.mu.Unlock()

	// Second leg: what the peer lacks, resumed at our push cursor. The
	// cursor only advances on a delivered frame — a failed exchange
	// re-sends the same window next round.
	delta, count, more := e.cfg.Store.AppendDelta(deltaBuf, peerDigest, e.cfg.MaxDelta, skip)
	e.mu.Lock()
	e.parseBuf = peerDigest
	e.deltaBuf = delta
	e.stats.DeltaRecv += uint64(applied)
	if count == 0 {
		delete(e.pushCursor, peer)
	}
	e.mu.Unlock()
	if count == 0 {
		return
	}
	ctx, cancel = context.WithTimeout(lifeCtx{e}, e.cfg.ExchangeTimeout)
	_, err = e.cfg.Transport.Exchange(ctx, peer, KindDelta, delta)
	cancel()
	if err == nil {
		e.mu.Lock()
		e.stats.DeltaSent += uint64(count)
		if more {
			e.pushCursor[peer] = skip + count
		} else {
			delete(e.pushCursor, peer)
		}
		e.mu.Unlock()
	}
}

// applyFrameEntries applies a concatenated entry frame (no count
// prefix) and returns how many entries were news.
func (e *Engine) applyFrameEntries(b []byte) int {
	applied := 0
	for len(b) > 0 {
		ent, n, err := DecodeEntry(b)
		if err != nil {
			break
		}
		b = b[n:]
		if res := e.cfg.Store.Apply(ent); res.Applied {
			applied++
		}
	}
	return applied
}

// pickPeersLocked samples up to k distinct peers. Callers hold e.mu.
func (e *Engine) pickPeersLocked(k int) []string {
	if len(e.peers) == 0 {
		return nil
	}
	if k >= len(e.peers) {
		return append([]string(nil), e.peers...)
	}
	out := make([]string, 0, k)
	// Partial Fisher–Yates over a copy of the index space.
	idx := make([]int, len(e.peers))
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + e.rng.Intn(len(idx)-i)
		idx[i], idx[j] = idx[j], idx[i]
		out = append(out, e.peers[idx[i]])
	}
	return out
}

// --- server-side handlers --------------------------------------------

// HandlePush serves an inbound rumor batch: apply each entry, learn
// fresh ones onward (that is what makes rumors epidemic), and reply
// with the already-knew bitmap the sender ages rumors by.
func (e *Engine) HandlePush(payload []byte) ([]byte, error) {
	count, off, err := DecodeEntryCount(payload)
	if err != nil {
		return nil, err
	}
	b := payload[off:]
	bitmap := make([]byte, (count+7)/8)
	for i := 0; i < count; i++ {
		ent, n, err := DecodeEntry(b)
		if err != nil {
			return nil, fmt.Errorf("gossip: push entry %d: %w", i, err)
		}
		b = b[n:]
		if res := e.Learn(ent); !res.Applied {
			bitmap[i/8] |= 1 << (i % 8)
		}
	}
	return bitmap, nil
}

// HandleSync serves an inbound digest: reply with the next resume
// cursor, our digest, then the entries the initiator's digest proves
// it lacks, starting at the cursor the request carried. The cursor
// round-trips through the initiator, so the responder stays stateless.
func (e *Engine) HandleSync(payload []byte) ([]byte, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("gossip: sync cursor truncated")
	}
	resume := binary.LittleEndian.Uint64(payload)
	theirs, _, err := ParseDigest(nil, payload[8:])
	if err != nil {
		return nil, err
	}
	out := make([]byte, 8)
	out = e.cfg.Store.AppendDigest(out)
	out, sent, more := e.cfg.Store.AppendDelta(out, theirs, e.cfg.MaxDelta, int(resume))
	next := uint64(0)
	if more {
		next = resume + uint64(sent)
	}
	binary.LittleEndian.PutUint64(out[:8], next)
	return out, nil
}

// HandleDelta serves the second sync leg: apply the entries.
func (e *Engine) HandleDelta(payload []byte) ([]byte, error) {
	applied := e.applyFrameEntries(payload)
	e.mu.Lock()
	e.stats.DeltaRecv += uint64(applied)
	e.mu.Unlock()
	return binary.AppendUvarint(nil, uint64(applied)), nil
}
