package gossip

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/simnet"
)

// mesh is an in-memory transport wiring engines directly together,
// with per-link partitions and a message counter.
type mesh struct {
	mu      sync.Mutex
	nodes   map[string]*Engine
	cut     map[[2]string]bool
	msgs    int64
	dropAll map[string]bool
}

func newMesh() *mesh {
	return &mesh{
		nodes:   make(map[string]*Engine),
		cut:     make(map[[2]string]bool),
		dropAll: make(map[string]bool),
	}
}

func (m *mesh) partition(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[[2]string{a, b}] = true
	m.cut[[2]string{b, a}] = true
}

func (m *mesh) heal(a, b string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.cut, [2]string{a, b})
	delete(m.cut, [2]string{b, a})
}

func (m *mesh) isolate(addr string, on bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dropAll[addr] = on
}

func (m *mesh) messages() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.msgs
}

// meshPort is one node's view of the mesh.
type meshPort struct {
	m    *mesh
	self string
}

func (p *meshPort) Exchange(ctx context.Context, to, kind string, payload []byte) ([]byte, error) {
	p.m.mu.Lock()
	target := p.m.nodes[to]
	blocked := p.m.cut[[2]string{p.self, to}] || p.m.dropAll[p.self] || p.m.dropAll[to]
	p.m.msgs++ // request frame
	p.m.mu.Unlock()
	if target == nil || blocked {
		return nil, fmt.Errorf("mesh: %s unreachable from %s", to, p.self)
	}
	var reply []byte
	var err error
	switch kind {
	case KindPush:
		reply, err = target.HandlePush(payload)
	case KindSync:
		reply, err = target.HandleSync(payload)
	case KindDelta:
		reply, err = target.HandleDelta(payload)
	default:
		err = fmt.Errorf("mesh: unknown kind %q", kind)
	}
	if err == nil {
		p.m.mu.Lock()
		p.m.msgs++ // reply frame
		p.m.mu.Unlock()
	}
	return reply, err
}

// newMeshEngines builds n engines over a fresh mesh, all running.
func newMeshEngines(t *testing.T, n int, clock simnet.Clock, seed int64) (*mesh, []*Engine) {
	t.Helper()
	m := newMesh()
	addrs := make([]string, n)
	engines := make([]*Engine, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("shard-%d", i)
	}
	for i, addr := range addrs {
		e, err := NewEngine(Config{
			Self:              addr,
			Transport:         &meshPort{m: m, self: addr},
			Store:             NewStore(clock, time.Hour),
			Clock:             clock,
			Seed:              seed + int64(i),
			Interval:          5 * time.Millisecond,
			ReconcileInterval: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		e.SetPeers(addrs)
		m.mu.Lock()
		m.nodes[addr] = e
		m.mu.Unlock()
		engines[i] = e
	}
	for _, e := range engines {
		e.Run()
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
	})
	return m, engines
}

// waitConverged polls until every engine's store has the same
// checksum and the expected live count.
func waitConverged(t *testing.T, engines []*Engine, wantLive int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		converged := true
		var sum uint64
		for i, e := range engines {
			st := e.Store().Stats()
			if i == 0 {
				sum = st.Checksum
			}
			if st.Checksum != sum || (wantLive >= 0 && st.Live != wantLive) {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			for i, e := range engines {
				st := e.Store().Stats()
				t.Logf("engine %d: live=%d entries=%d checksum=%x", i, st.Live, st.Entries, st.Checksum)
			}
			t.Fatalf("engines did not converge within %v", within)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestEngineConvergence(t *testing.T) {
	clock := simnet.WallClock{}
	_, engines := newMeshEngines(t, 5, clock, 42)
	pub := NewPublisher("origin-a", clock)
	const total = 120
	for i := 0; i < total; i++ {
		// Spread publishes across entry points: rumors must cross.
		engines[i%len(engines)].Learn(pub.Entry(fmt.Sprintf("adv-%d", i), []byte("<A/>"), time.Hour))
	}
	waitConverged(t, engines, total, 5*time.Second)
}

func TestEngineTombstonePropagatesAndBlocksResurrection(t *testing.T) {
	clock := simnet.WallClock{}
	_, engines := newMeshEngines(t, 4, clock, 7)
	pub := NewPublisher("origin-a", clock)
	live := pub.Entry("adv-x", []byte("<A/>"), time.Hour)
	engines[0].Learn(live)
	waitConverged(t, engines, 1, 5*time.Second)

	engines[0].Learn(pub.Tombstone("adv-x"))
	waitConverged(t, engines, 0, 5*time.Second)

	// A stale replica re-pushing the old live version must be refused
	// everywhere: the tombstone's version dominates.
	for _, e := range engines {
		if res := e.Learn(live); res.Applied {
			t.Fatalf("stale live entry resurrected over tombstone")
		}
		if got, ok := e.Store().Get("adv-x"); !ok || !got.Deleted {
			t.Fatalf("tombstone missing: %+v ok=%v", got, ok)
		}
	}
}

func TestEnginePartitionHealsViaAntiEntropy(t *testing.T) {
	clock := simnet.WallClock{}
	m, engines := newMeshEngines(t, 4, clock, 99)
	// Isolate shard-3 completely, then publish.
	m.isolate("shard-3", true)
	pub := NewPublisher("origin-b", clock)
	for i := 0; i < 40; i++ {
		engines[0].Learn(pub.Entry(fmt.Sprintf("p-%d", i), []byte("<A/>"), time.Hour))
	}
	waitConverged(t, engines[:3], 40, 5*time.Second)
	if st := engines[3].Store().Stats(); st.Live != 0 {
		t.Fatalf("isolated shard learned %d entries", st.Live)
	}
	// Heal: rumors have long retired, so only digest reconciliation
	// can repair the partitioned shard.
	m.isolate("shard-3", false)
	waitConverged(t, engines, 40, 5*time.Second)
}

func TestEngineRumorsRetire(t *testing.T) {
	clock := simnet.WallClock{}
	_, engines := newMeshEngines(t, 3, clock, 5)
	pub := NewPublisher("origin-c", clock)
	for i := 0; i < 30; i++ {
		engines[0].Learn(pub.Entry(fmt.Sprintf("r-%d", i), []byte("<A/>"), time.Hour))
	}
	waitConverged(t, engines, 30, 5*time.Second)
	// Once everyone knows everything, every queue must drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		depth := 0
		for _, e := range engines {
			depth += e.Stats().QueueDepth
		}
		if depth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rumor queues never drained: depth=%d", depth)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// A ring of one has nobody to tell: Learn queues no rumor on a peerless
// engine, an engine whose last peer leaves retires what it had queued
// instead of keeping it for the life of the process, and a retired key
// is queued again when it next makes news to a ring with peers.
func TestEnginePeerlessRumorsRetire(t *testing.T) {
	clock := simnet.WallClock{}
	e, err := NewEngine(Config{
		Self:      "solo",
		Transport: &meshPort{m: newMesh(), self: "solo"},
		Store:     NewStore(clock, time.Hour),
		Clock:     clock,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPeers([]string{"solo"})
	pub := NewPublisher("o", clock)
	const n = 20
	for i := 0; i < n; i++ {
		e.Learn(pub.Entry(fmt.Sprintf("live-%d", i), []byte("<A/>"), time.Hour))
		e.Learn(pub.Tombstone(fmt.Sprintf("dead-%d", i)))
	}
	if st := e.Stats(); st.QueueDepth != 0 || st.RumorsQueued != 0 {
		t.Fatalf("peerless engine queued %d rumors (depth %d), want none", st.RumorsQueued, st.QueueDepth)
	}
	e.SetPeers([]string{"solo", "other"})
	for i := 0; i < n; i++ {
		e.Learn(pub.Entry(fmt.Sprintf("new-%d", i), []byte("<A/>"), time.Hour))
	}
	if d := e.Stats().QueueDepth; d != n {
		t.Fatalf("queued %d rumors with a peer, want %d", d, n)
	}
	e.SetPeers([]string{"solo"})
	st := e.Stats()
	if st.QueueDepth != 0 || st.RumorsRetired != n || len(e.queued) != 0 {
		t.Fatalf("after the last peer left: depth=%d retired=%d queued=%d, want 0/%d/0",
			st.QueueDepth, st.RumorsRetired, len(e.queued), n)
	}
	e.SetPeers([]string{"solo", "other"})
	e.Learn(pub.Tombstone("new-0"))
	if d := e.Stats().QueueDepth; d != 1 {
		t.Fatalf("tombstone after retirement not queued: depth=%d", d)
	}
}

// TestEngineRoundsOnlyWithPeers: a running engine without peers runs no
// round; peers start its rounds, and losing them parks it again.
func TestEngineRoundsOnlyWithPeers(t *testing.T) {
	_, engines := newMeshEngines(t, 2, simnet.WallClock{}, 3)
	solo := engines[0]
	rounds := func() uint64 { return solo.Stats().Rounds }
	waitRounds := func(what string, past uint64) uint64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rounds() <= past {
			if time.Now().After(deadline) {
				t.Fatalf("%s: no round past %d", what, past)
			}
			time.Sleep(time.Millisecond)
		}
		return rounds()
	}
	waitRounds("with a peer", 0)
	// A round counts itself only after seeing a peer, under the lock
	// SetPeers takes: none is counted after SetPeers returns.
	solo.SetPeers([]string{"shard-0"})
	parked := rounds()
	time.Sleep(50 * time.Millisecond) // ten rumor intervals
	if got := rounds(); got != parked {
		t.Fatalf("peerless engine ran %d more rounds", got-parked)
	}
	solo.SetPeers([]string{"shard-0", "shard-1"})
	waitRounds("peers back", parked)
}

func TestEngineLearnRefreshSkipsRumorQueue(t *testing.T) {
	clock := simnet.WallClock{}
	e, err := NewEngine(Config{
		Self:      "solo",
		Transport: &meshPort{m: newMesh(), self: "solo"},
		Store:     NewStore(clock, time.Hour),
		Clock:     clock,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetPeers([]string{"solo", "other"})
	pub := NewPublisher("o", clock)
	if res := e.Learn(pub.Entry("k", nil, time.Hour)); !res.New {
		t.Fatalf("first learn not new: %+v", res)
	}
	if e.Stats().QueueDepth != 1 {
		t.Fatalf("new entry not queued")
	}
	// A version refresh of a known key rides anti-entropy, not rumors.
	if res := e.Learn(pub.Entry("k", nil, time.Hour)); !res.Applied || res.New {
		t.Fatalf("refresh: %+v", res)
	}
	if d := e.Stats().QueueDepth; d != 1 {
		t.Fatalf("refresh changed queue depth: %d", d)
	}
	// A tombstone is news and must monger.
	e.Learn(pub.Tombstone("k2-unknown"))
	if d := e.Stats().QueueDepth; d != 2 {
		t.Fatalf("tombstone not queued: depth=%d", d)
	}
}

func TestEngineConcurrentLearnAndRounds(t *testing.T) {
	clock := simnet.WallClock{}
	_, engines := newMeshEngines(t, 3, clock, 11)
	var wg sync.WaitGroup
	var published atomic.Int64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			pub := NewPublisher(fmt.Sprintf("origin-%d", w), clock)
			for i := 0; i < 50; i++ {
				engines[(w+i)%len(engines)].Learn(pub.Entry(fmt.Sprintf("c-%d-%d", w, i), []byte("<A/>"), time.Hour))
				published.Add(1)
			}
		}(w)
	}
	wg.Wait()
	waitConverged(t, engines, int(published.Load()), 10*time.Second)
}

// TestReconcileResumesPastMaxDelta pins the delta-cursor fix: a pair
// diverged by more entries than one frame carries must still converge,
// with successive truncated frames covering successive windows. Before
// the resume cursor, every round re-sent the same leading MaxDelta
// entries (all rejected as duplicates) and the tail never shipped — a
// permanent livelock once any origin diverged past the frame cap.
// Entries are seeded via Store.Apply, not Learn, so the rumor path
// cannot mask an anti-entropy failure.
func TestReconcileResumesPastMaxDelta(t *testing.T) {
	const total, maxDelta = 20, 4
	build := func(t *testing.T) (*Engine, *Engine) {
		t.Helper()
		clock := simnet.WallClock{}
		m := newMesh()
		var engines []*Engine
		for i := 0; i < 2; i++ {
			addr := fmt.Sprintf("shard-%d", i)
			e, err := NewEngine(Config{
				Self:      addr,
				Transport: &meshPort{m: m, self: addr},
				Store:     NewStore(clock, time.Hour),
				Clock:     clock,
				Seed:      int64(i + 1),
				MaxDelta:  maxDelta,
			})
			if err != nil {
				t.Fatalf("engine %d: %v", i, err)
			}
			m.mu.Lock()
			m.nodes[addr] = e
			m.mu.Unlock()
			engines = append(engines, e)
		}
		engines[0].SetPeers([]string{"shard-0", "shard-1"})
		engines[1].SetPeers([]string{"shard-0", "shard-1"})
		pub := NewPublisher("origin-a", clock)
		for i := 0; i < total; i++ {
			engines[0].Store().Apply(pub.Entry(fmt.Sprintf("adv-%d", i), []byte("<A/>"), time.Hour))
		}
		return engines[0], engines[1]
	}
	converge := func(t *testing.T, initiator, other *Engine) {
		t.Helper()
		rounds := 0
		for ; rounds < 4*total/maxDelta; rounds++ {
			if initiator.Store().Stats().Checksum == other.Store().Stats().Checksum {
				break
			}
			initiator.reconcileRound()
		}
		a, b := initiator.Store().Stats(), other.Store().Stats()
		if a.Checksum != b.Checksum || a.Live != total || b.Live != total {
			t.Fatalf("no convergence after %d rounds: a{live=%d sum=%x} b{live=%d sum=%x}",
				rounds, a.Live, a.Checksum, b.Live, b.Checksum)
		}
		want := (total + maxDelta - 1) / maxDelta
		if rounds < want {
			t.Fatalf("converged in %d rounds; %d entries at %d per frame need >= %d", rounds, total, maxDelta, want)
		}
	}
	// Pull leg: the empty store initiates, the resume cursor round-trips
	// through the sync request and reply.
	t.Run("pull", func(t *testing.T) {
		full, empty := build(t)
		converge(t, empty, full)
	})
	// Push leg: the full store initiates, its second-leg delta resumes
	// at the engine-local push cursor.
	t.Run("push", func(t *testing.T) {
		full, empty := build(t)
		converge(t, full, empty)
	})
}
