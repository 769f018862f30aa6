package chaos

import (
	"context"
	"sync"
	"testing"
	"time"

	"whisper/internal/simnet"
)

// fakeTarget is an in-memory crash–restartable component.
type fakeTarget struct {
	name, addr string

	mu       sync.Mutex
	running  bool
	crashes  int
	restarts int
}

func newFakeTarget(name string) *fakeTarget {
	return &fakeTarget{name: name, addr: name, running: true}
}

func (f *fakeTarget) Name() string { return f.name }
func (f *fakeTarget) Addr() string { return f.addr }

func (f *fakeTarget) Running() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.running
}

func (f *fakeTarget) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running = false
	f.crashes++
	return nil
}

func (f *fakeTarget) Restart(context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.running = true
	f.restarts++
	return nil
}

func runEngine(seed int64, window time.Duration) []string {
	targets := []Target{newFakeTarget("a"), newFakeTarget("b"), newFakeTarget("c")}
	eng := New(Config{
		Seed: seed,
		MTBF: 20 * time.Millisecond,
		MTTR: 5 * time.Millisecond,
	}, targets...)
	ctx, cancel := context.WithTimeout(context.Background(), window)
	defer cancel()
	eng.Run(ctx)
	var seq []string
	for _, ev := range eng.Events() {
		seq = append(seq, ev.Kind+":"+ev.Detail)
	}
	return seq
}

func TestEngineDeterministicPerSeed(t *testing.T) {
	a := runEngine(42, 300*time.Millisecond)
	b := runEngine(42, 300*time.Millisecond)
	if len(a) < 5 {
		t.Fatalf("engine produced only %d events, want a busy run", len(a))
	}
	// The wall-clock cutoff may truncate one run slightly earlier, but
	// the generated sequences must agree on their common prefix.
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			t.Fatalf("seed 42 diverged at event %d: %q vs %q\nrun1=%v\nrun2=%v", i, a[i], b[i], a, b)
		}
	}
	c := runEngine(7, 300*time.Millisecond)
	same := len(c) == len(a)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestEngineRespectsMinAlive(t *testing.T) {
	t1, t2 := newFakeTarget("a"), newFakeTarget("b")
	eng := New(Config{
		Seed:     3,
		MTBF:     5 * time.Millisecond,
		MTTR:     time.Millisecond,
		MinAlive: 2,
	}, t1, t2)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	eng.Run(ctx)
	if got := eng.Counts().Get("crash"); got != 0 {
		t.Errorf("crashes = %d, want 0 with MinAlive == target count", got)
	}
	if eng.Counts().Get("crash.skipped") == 0 {
		t.Error("expected skipped crash attempts")
	}
}

func TestEngineQuiesceHealsAndRestarts(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	t.Cleanup(func() { _ = net.Close() })
	pa, err := net.NewPort("a")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	pb, err := net.NewPort("b")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	_ = pa

	t1, t2 := newFakeTarget("a"), newFakeTarget("b")
	eng := New(Config{
		Seed:          1,
		MTBF:          10 * time.Millisecond,
		MTTR:          time.Hour, // crashed targets stay down until Quiesce
		Network:       net,
		PartitionMTBF: 5 * time.Millisecond,
		PartitionMTTR: time.Hour, // partitions stay up until Quiesce
	}, t1, t2)
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	eng.Run(ctx)

	if eng.Counts().Get("crash") == 0 {
		t.Fatal("no crashes generated")
	}
	if eng.Counts().Get("partition") == 0 {
		t.Fatal("no partitions generated")
	}
	if err := eng.Quiesce(context.Background()); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if !t1.Running() || !t2.Running() {
		t.Error("quiesce left a target down")
	}
	// The a|b partition must be healed: a message crosses the link.
	if err := pa.Send("b", simnet.Message{Proto: "t"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case <-pb.Recv():
	case <-time.After(time.Second):
		t.Error("link still partitioned after quiesce")
	}
}

func TestCheckerRecordsCorruptedAck(t *testing.T) {
	c := NewChecker()
	c.RecordResponse("r1", "hello", "hello")
	c.RecordFailure("r2")
	if !c.Ok() {
		t.Fatalf("unexpected violations: %v", c.Violations())
	}
	if got := c.Availability(); got != 0.5 {
		t.Errorf("availability = %v, want 0.5", got)
	}
	c.RecordResponse("r3", "garbled", "hello")
	if c.Ok() {
		t.Error("corrupted acknowledged response not flagged")
	}
}

func TestCheckerOverdue(t *testing.T) {
	c := NewChecker()
	c.RecordOverdue("r1", 3*time.Second, time.Second)
	if c.Ok() {
		t.Error("overdue call not flagged")
	}
}

func TestWaitSingleCoordinator(t *testing.T) {
	c := NewChecker()
	var mu sync.Mutex
	coord := ""
	view := func() CoordView {
		mu.Lock()
		defer mu.Unlock()
		return CoordView{
			Coordinators: map[string]string{"a": coord, "b": coord},
			Addrs:        map[string]string{"a": "a", "b": "b"},
		}
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		mu.Lock()
		coord = "b"
		mu.Unlock()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := c.WaitSingleCoordinator(ctx, view); err != nil {
		t.Fatalf("convergence: %v", err)
	}
	if !c.Ok() {
		t.Errorf("violations: %v", c.Violations())
	}
}

func TestWaitSingleCoordinatorTimeout(t *testing.T) {
	c := NewChecker()
	// The believed coordinator is not among the running replicas.
	view := func() CoordView {
		return CoordView{
			Coordinators: map[string]string{"a": "ghost"},
			Addrs:        map[string]string{"a": "a"},
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := c.WaitSingleCoordinator(ctx, view); err == nil {
		t.Fatal("expected convergence timeout")
	}
	if c.Ok() {
		t.Error("timeout must record a violation")
	}
}

func TestEngineSplitViewDetected(t *testing.T) {
	v := CoordView{
		Coordinators: map[string]string{"a": "a", "b": "b"},
		Addrs:        map[string]string{"a": "a", "b": "b"},
	}
	ok, reason := v.converged()
	if ok {
		t.Fatal("split view reported as converged")
	}
	if reason == "" {
		t.Error("want a reason for the split view")
	}
}

// flakyTarget fails its first Restart, as a replica does when the run
// context ends while it is coming back.
type flakyTarget struct {
	*fakeTarget
	failed bool
}

func (f *flakyTarget) Restart(ctx context.Context) error {
	if !f.failed {
		f.failed = true
		return context.Canceled
	}
	return f.fakeTarget.Restart(ctx)
}

// TestFailedRestartIsNotCountedAsARepair: a crash is repaired once. A
// restart that fails leaves the target down; the revival by Quiesce is
// the one that counts, so crash and restart totals still pair up.
func TestFailedRestartIsNotCountedAsARepair(t *testing.T) {
	target := &flakyTarget{fakeTarget: newFakeTarget("a")}
	eng := New(Config{Seed: 1, MTBF: time.Hour, MinAlive: -1}, target)
	if err := target.Crash(); err != nil {
		t.Fatal(err)
	}
	eng.recordRestart(0, target, target.Restart(context.Background()))
	if err := eng.Quiesce(context.Background()); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if !target.Running() {
		t.Fatal("quiesce left the target down")
	}
	counts := eng.Counts()
	if counts.Get("restart") != 1 || counts.Get("restart.failed") != 1 || counts.Get("error") != 1 {
		t.Fatalf("restart=%d restart.failed=%d error=%d, want 1 1 1",
			counts.Get("restart"), counts.Get("restart.failed"), counts.Get("error"))
	}
}
