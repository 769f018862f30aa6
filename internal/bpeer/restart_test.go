package bpeer

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// addSlowDetectPeer adds a replica whose heartbeat failure detection is
// far too slow to matter inside the test window, so any fast
// coordinator hand-off must come from the graceful resignation path,
// not from detection.
func (d *deployment) addSlowDetectPeer(t *testing.T, i int) *BPeer {
	t.Helper()
	name := fmt.Sprintf("bp%d", i)
	port, err := d.net.NewPort(name)
	if err != nil {
		t.Fatalf("port %s: %v", name, err)
	}
	bp, err := New(port, Config{
		Name:              name,
		Rank:              int64(i + 1),
		GroupID:           d.gid,
		GroupName:         "StudentManagement",
		Signature:         studentSig(),
		QoS:               qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
		RendezvousAddr:    "rdv",
		Handler:           echoHandler(name),
		IDGen:             d.gen,
		HeartbeatInterval: 5 * time.Second,
		HeartbeatTimeout:  60 * time.Second,
		ElectionTimeout:   40 * time.Millisecond,
		LeaseInterval:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("new bpeer %s: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := bp.Start(ctx); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() { _ = bp.Close() })
	d.peers = append(d.peers, bp)
	return bp
}

func newSlowDetectDeployment(t *testing.T, replicas int) *deployment {
	t.Helper()
	d := newDeployment(t, 0)
	for i := 0; i < replicas; i++ {
		d.addSlowDetectPeer(t, i)
	}
	return d
}

// TestGracefulCloseHandsOffImmediately: a coordinator that Closes
// resigns — it leaves the rendezvous group and challenges the
// survivors — so a new coordinator emerges within election time even
// though failure detection would take a minute to notice.
func TestGracefulCloseHandsOffImmediately(t *testing.T) {
	d := newSlowDetectDeployment(t, 3)
	waitCoordinator(t, d.peers, 3*time.Second)

	coord := d.peers[2] // rank 3 wins
	if !coord.IsCoordinator() {
		t.Fatalf("expected rank 3 to coordinate, got %s", d.peers[0].Coordinator())
	}
	if err := coord.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if coord.Crashed() {
		t.Error("graceful close must not report Crashed()")
	}

	want := d.peers[1].Addr() // rank 2 takes over
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if d.peers[0].Coordinator() == want && d.peers[1].Coordinator() == want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("hand-off never happened: survivors report %s / %s, want %s",
		d.peers[0].Coordinator(), d.peers[1].Coordinator(), want)
}

// TestCrashGivesNoFarewell: a crashed coordinator sends nothing, so
// with slow failure detection the survivors keep believing in the dead
// coordinator — the crash is only discoverable by the detector, whose
// next ping is refused (exercised with fast detection in
// TestCoordinatorFailoverElectsNext).
func TestCrashGivesNoFarewell(t *testing.T) {
	d := newSlowDetectDeployment(t, 3)
	waitCoordinator(t, d.peers, 3*time.Second)

	coord := d.peers[2]
	dead := coord.Addr()
	if err := coord.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	if !coord.Crashed() {
		t.Error("Crash() must report Crashed()")
	}
	if coord.Running() {
		t.Error("crashed replica still Running()")
	}

	// No resignation traffic: well past election time, the survivors
	// still believe in the dead coordinator.
	time.Sleep(500 * time.Millisecond)
	for _, p := range d.peers[:2] {
		if got := p.Coordinator(); got != dead {
			t.Errorf("%s switched to %s, but a crash sends no farewell", p.Name(), got)
		}
	}
}

// TestRestartRejoinsGroup: a crashed replica restarts on a fresh
// transport, rejoins the rendezvous group under its stable peer ID,
// re-publishes its advertisement and serves again.
func TestRestartRejoinsGroup(t *testing.T) {
	d := newDeployment(t, 2)
	waitCoordinator(t, d.peers, 3*time.Second)

	bp := d.peers[1] // rank 2, the coordinator
	if err := bp.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// The survivor takes over.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && d.peers[0].Coordinator() != d.peers[0].Addr() {
		time.Sleep(10 * time.Millisecond)
	}

	port, err := d.net.NewPort(bp.Name())
	if err != nil {
		t.Fatalf("fresh port: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := bp.Restart(ctx, port); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if !bp.Running() || bp.Crashed() {
		t.Fatalf("restarted replica: Running=%v Crashed=%v", bp.Running(), bp.Crashed())
	}

	// The restarted replica has the highest rank and must reclaim
	// coordinatorship via the election it triggers on start.
	want := bp.Addr()
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if d.peers[0].Coordinator() == want && bp.Coordinator() == want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if d.peers[0].Coordinator() != want {
		t.Fatalf("survivor still reports %s, want restarted %s", d.peers[0].Coordinator(), want)
	}

	// The group keeps exactly one membership entry per replica: the
	// stable peer ID means the rejoin overwrote the stale record.
	if got := len(d.rdvDsc.GetLocalAdvertisements(p2p.PeerAdvType, "GID", string(d.gid))); got != 2 {
		t.Errorf("membership has %d entries after rejoin, want 2", got)
	}

	status, _, out := d.rawCall(t, bp.ServicePipe(), "Op", []byte("z"))
	if status != statusOK || string(out) != "bp1:Op:z" {
		t.Errorf("status=%s out=%q", status, out)
	}
}

// TestRestartCatchesUpByDelta: each catch-up of a crash — the
// successor's barrier, the restart's catch-up and the restarted top
// rank's barrier — is answered with a delta, compaction included. The
// restarted replica then answers a retry of every earlier key from its
// journal, without executing anything again.
func TestRestartCatchesUpByDelta(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 3, countingHandler(&execs))
	top := coordOf(t, d)
	for _, p := range d.peers {
		p.Journal().SetCompactionThreshold(4)
	}
	var keys []string
	replies := map[string]string{}
	write := func(coord *BPeer, key string) {
		t.Helper()
		st, em, out := d.keyedCall(t, coord.ServicePipe(), "Op", key, []byte("<p/>"))
		if st != statusOK {
			t.Fatalf("write %s: %s %s", key, st, em)
		}
		keys = append(keys, key)
		replies[key] = string(out)
	}
	answers := func() (delta, full int64) {
		for _, p := range d.peers {
			delta += p.Journal().Counters().Get("catchup.delta")
			full += p.Journal().Counters().Get("catchup.full")
		}
		return delta, full
	}
	for i := 0; i < 10; i++ {
		write(top, fmt.Sprintf("before-%d", i))
	}
	delta0, full0 := answers()

	if err := top.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	successor := coordOf(t, d, top.Addr())
	for i := 0; i < 5; i++ {
		write(successor, fmt.Sprintf("during-%d", i))
	}
	d.restartPeer(t, top, top.Name()+"-second-life")
	if back := coordOf(t, d, successor.Addr()); back != top {
		t.Fatalf("coordinator after the restart is %s, want the restarted top rank", back.Name())
	}

	delta, full := answers()
	if full != full0 {
		t.Errorf("%d catch-ups after the crash were answered with the full snapshot", full-full0)
	}
	if got := delta - delta0; got < 3 {
		t.Errorf("%d catch-ups after the crash were answered with a delta, want at least 3", got)
	}
	executed := execs.Load()
	for _, key := range keys {
		st, em, out := d.keyedCall(t, top.ServicePipe(), "Op", key, []byte("<p/>"))
		if st != statusOK || string(out) != replies[key] {
			t.Errorf("retry of %s at the restarted replica: %s %q %q, want the cached %q", key, st, em, out, replies[key])
		}
	}
	if n := execs.Load() - executed; n != 0 {
		t.Errorf("retries executed %d operations again", n)
	}
}
