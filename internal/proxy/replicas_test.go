package proxy

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// addReadGroup deploys a journaling group whose "StudentInformation"
// op is read-only, with per-replica handlers that echo the replica
// name (so tests can see which replica served a read).
func (f *fixture) addReadGroup(t *testing.T, name string, replicas int) []*bpeer.BPeer {
	t.Helper()
	gid := f.gen.New(p2p.GroupIDKind)
	var peers []*bpeer.BPeer
	for i := 0; i < replicas; i++ {
		rname := fmt.Sprintf("%s-%d", name, i)
		bp, err := bpeer.New(f.port(t, name), bpeer.Config{
			Name:              rname,
			Rank:              int64(i + 1),
			GroupID:           gid,
			GroupName:         name,
			Signature:         studentSig(),
			QoS:               qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
			RendezvousAddr:    "rdv",
			Handler:           echo(rname),
			IDGen:             f.gen,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  80 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
			LeaseInterval:     200 * time.Millisecond,
			ReadOnlyOps:       []string{"StudentInformation"},
		})
		if err != nil {
			t.Fatalf("bpeer %s: %v", rname, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := bp.Start(ctx); err != nil {
			cancel()
			t.Fatalf("start %s: %v", rname, err)
		}
		cancel()
		t.Cleanup(func() { _ = bp.Close() })
		peers = append(peers, bp)
	}
	f.groups[name] = peers
	f.waitGroupReady(t, peers)
	return peers
}

// TestReadsBalancedAcrossReplicas: marked reads spread across the
// group instead of all landing on the coordinator, every read
// satisfies ReadSeq >= ReadIndex, and the ReadObserver sees each one.
func TestReadsBalancedAcrossReplicas(t *testing.T) {
	f := newFixture(t)
	f.addReadGroup(t, "students", 3)

	var observed atomic.Int64
	var stale atomic.Int64
	p := f.addProxy(t, Config{
		ReadObserver: func(_ string, readIndex, readSeq uint64) {
			observed.Add(1)
			if readSeq < readIndex {
				stale.Add(1)
			}
		},
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// A write first, so the read index is non-zero.
	if _, err := p.Invoke(ctx, studentSig(), "UpdateStudent", []byte("S1")); err != nil {
		t.Fatalf("write: %v", err)
	}

	const reads = 60
	served := make(map[string]int)
	for i := 0; i < reads; i++ {
		out, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1"))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		// echo() answers "<replica>:<op>:<payload>".
		name := strings.SplitN(string(out), ":", 2)[0]
		served[name]++
	}
	if len(served) < 2 {
		t.Fatalf("reads served by %v, want spread across >= 2 replicas", served)
	}
	if got := observed.Load(); got != reads {
		t.Fatalf("ReadObserver saw %d reads, want %d", got, reads)
	}
	if got := stale.Load(); got != 0 {
		t.Fatalf("%d stale reads observed, want 0", got)
	}
	if got := p.Health().Get("reads.served"); got != reads {
		t.Fatalf("reads.served = %d, want %d", got, reads)
	}
	if got := p.Health().Get("reads.stale"); got != 0 {
		t.Fatalf("reads.stale = %d, want 0", got)
	}
}

// TestReadRedirectsAroundDeadReplica: a crashed replica redirects its
// reads to the siblings instead of failing calls.
func TestReadRedirectsAroundDeadReplica(t *testing.T) {
	f := newFixture(t)
	peers := f.addReadGroup(t, "students", 3)
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "UpdateStudent", []byte("S1")); err != nil {
		t.Fatalf("write: %v", err)
	}
	// Prime the read set.
	if _, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1")); err != nil {
		t.Fatalf("prime read: %v", err)
	}

	// Crash a follower (not the coordinator, so the write path and the
	// read-index source stay up).
	var crashed *bpeer.BPeer
	for _, bp := range peers {
		if !bp.IsCoordinator() {
			crashed = bp
			break
		}
	}
	if crashed == nil {
		t.Fatal("no follower to crash")
	}
	if err := crashed.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}

	for i := 0; i < 30; i++ {
		out, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1"))
		if err != nil {
			t.Fatalf("read %d after crash: %v", i, err)
		}
		name := strings.SplitN(string(out), ":", 2)[0]
		if name == crashed.Name() {
			t.Fatalf("read %d served by crashed replica %s", i, name)
		}
	}
}

// TestConcurrentReadsAndWeightUpdates races the read-balanced invoke
// path against selector weight retuning — the -race regression for the
// replica selector.
func TestConcurrentReadsAndWeightUpdates(t *testing.T) {
	f := newFixture(t)
	f.addReadGroup(t, "students", 3)
	sel := qos.NewSelector(nil, qos.Weights{})
	p := f.addProxy(t, Config{Selector: sel})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "UpdateStudent", []byte("S1")); err != nil {
		t.Fatalf("write: %v", err)
	}

	var readers sync.WaitGroup
	var updater sync.WaitGroup
	stop := make(chan struct{})
	updater.Add(1)
	go func() {
		defer updater.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			sel.SetWeights(qos.Weights{
				Latency:      float64(i%4) + 0.1,
				Reliability:  float64((i+1)%4) + 0.1,
				Availability: 0.3,
			})
			i++
			time.Sleep(time.Millisecond)
		}
	}()
	var failures atomic.Int64
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 25; i++ {
				if _, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1")); err != nil {
					failures.Add(1)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	updater.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d reader goroutines failed", n)
	}
	if got := p.Health().Get("reads.stale"); got != 0 {
		t.Fatalf("reads.stale = %d, want 0", got)
	}
}

// TestReadPickDoesNotLeakHalfOpenProbe: computing the draw weights must
// not consume a replica's half-open probe. A replica whose breaker is
// open past its cooldown, but which the draw passes over in favour of a
// sibling, has to stay eligible: nobody will report an outcome for a
// probe that was never sent, so a consumed one would bar the replica
// from reads for good.
func TestReadPickDoesNotLeakHalfOpenProbe(t *testing.T) {
	f := newFixture(t)
	peers := f.addReadGroup(t, "students", 2)
	var flaky, steady *bpeer.BPeer
	for _, bp := range peers {
		if bp.IsCoordinator() {
			steady = bp
		} else {
			flaky = bp
		}
	}
	// The test owns the selector's tracker, so it decides every draw:
	// under a reliability-only weighting a replica with 20 failed
	// observations scores 0 and one with 20 successes scores 1.
	tr := qos.NewTracker()
	prefer := func(want *bpeer.BPeer) {
		for _, bp := range peers {
			tr.Forget(bp.Addr())
			for i := 0; i < 20; i++ {
				tr.Observe(bp.Addr(), 0, bp == want)
			}
		}
	}
	p := f.addProxy(t, Config{
		Selector:         qos.NewSelector(tr, qos.Weights{Reliability: 1}),
		CallTimeout:      100 * time.Millisecond,
		RetryDelay:       10 * time.Millisecond,
		BreakerThreshold: 1,
		BreakerCooldown:  150 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	read := func() (string, error) {
		out, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1"))
		return strings.SplitN(string(out), ":", 2)[0], err
	}

	prefer(flaky)
	if by, err := read(); err != nil || by != flaky.Name() {
		t.Fatalf("priming read served by %q (%v), want %s", by, err, flaky.Name())
	}
	// One lost call opens the flaky replica's breaker (and, at
	// threshold 1, the group's, which sheds the rest of this call).
	f.net.Partition(p.Addr(), flaky.Addr())
	if _, err := read(); err == nil {
		t.Fatal("read through a partitioned replica succeeded")
	}
	if got := p.Health().Get("read.breaker.opened"); got != 1 {
		t.Fatalf("read.breaker.opened = %d, want 1", got)
	}
	f.net.Heal(p.Addr(), flaky.Addr())
	time.Sleep(200 * time.Millisecond) // both cooldowns elapse

	// The flaky replica is now due a probe, but the draw goes to its
	// sibling.
	prefer(steady)
	if by, err := read(); err != nil || by != steady.Name() {
		t.Fatalf("read after cooldown served by %q (%v), want %s", by, err, steady.Name())
	}
	// The passed-over replica must still be eligible on the next pick.
	prefer(flaky)
	if by, err := read(); err != nil || by != flaky.Name() {
		t.Fatalf("read served by %q (%v), want the recovered replica %s: its half-open probe leaked", by, err, flaky.Name())
	}
	if got := p.Health().Get("read.breaker.closed"); got != 1 {
		t.Errorf("read.breaker.closed = %d, want 1 (the probe closes the breaker)", got)
	}
}
