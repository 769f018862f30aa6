package p2p

import (
	"sync"
	"testing"
	"time"
)

func TestFailureDetectorHealthyPeerStaysHealthy(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	da := NewFailureDetector(a, FailureDetectorConfig{Interval: 20 * time.Millisecond})
	NewFailureDetector(b, FailureDetectorConfig{Interval: 20 * time.Millisecond})
	a.Start()
	b.Start()
	da.Watch(b.Addr())
	da.Start()
	t.Cleanup(da.Stop)

	time.Sleep(200 * time.Millisecond)
	if !da.Healthy(b.Addr()) {
		t.Error("responsive peer marked failed")
	}
}

func TestFailureDetectorDetectsCrash(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]

	failed := make(chan string, 1)
	da := NewFailureDetector(a, FailureDetectorConfig{
		Interval:  20 * time.Millisecond,
		Timeout:   80 * time.Millisecond,
		OnFailure: func(addr string) { failed <- addr },
	})
	NewFailureDetector(b, FailureDetectorConfig{Interval: 20 * time.Millisecond})
	a.Start()
	b.Start()
	da.Watch(b.Addr())
	da.Start()
	t.Cleanup(da.Stop)

	time.Sleep(100 * time.Millisecond) // establish health
	bAddr := b.Addr()
	_ = b.Close() // crash

	select {
	case addr := <-failed:
		if addr != bAddr {
			t.Errorf("failed addr = %s, want %s", addr, bAddr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("failure never detected")
	}
	if da.Healthy(bAddr) {
		t.Error("crashed peer still healthy")
	}
}

// A detector that was itself paused (SIGSTOP, a stalled host) must not
// accuse a peer of the silence it slept through — only of silence it
// was awake to observe.
func TestFailureDetectorForgivesItsOwnPause(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	var failures []string
	d := NewFailureDetector(a, FailureDetectorConfig{
		Interval:  50 * time.Millisecond,
		Timeout:   200 * time.Millisecond,
		OnFailure: func(addr string) { failures = append(failures, addr) },
	})
	a.Start()
	// b never starts, so no ack ever moves lastAck: the test drives the
	// ticks by hand and owns the clock.
	d.Watch(b.Addr())
	t0 := time.Now()
	d.tick(t0)
	d.tick(t0.Add(50 * time.Millisecond))
	// The process stops for 300 ms: the next tick comes 350 ms later.
	at := t0.Add(400 * time.Millisecond)
	d.tick(at)
	if len(failures) != 0 {
		t.Fatalf("accused %v after a pause of the detector itself", failures)
	}
	// Awake again, silence counts: 200 ms of it in all is the timeout.
	for i := 0; i < 3 && len(failures) == 0; i++ {
		at = at.Add(50 * time.Millisecond)
		d.tick(at)
	}
	if len(failures) != 1 || failures[0] != b.Addr() {
		t.Fatalf("failures = %v, want [%s] once the observed silence passes the timeout", failures, b.Addr())
	}
}

func TestFailureDetectorRecovery(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]

	var mu sync.Mutex
	events := []string{}
	record := func(tag string) func(string) {
		return func(string) {
			mu.Lock()
			events = append(events, tag)
			mu.Unlock()
		}
	}
	da := NewFailureDetector(a, FailureDetectorConfig{
		Interval:   20 * time.Millisecond,
		Timeout:    80 * time.Millisecond,
		OnFailure:  record("fail"),
		OnRecovery: record("recover"),
	})
	NewFailureDetector(b, FailureDetectorConfig{Interval: 20 * time.Millisecond})
	a.Start()
	b.Start()
	da.Watch(b.Addr())
	da.Start()
	t.Cleanup(da.Stop)

	// Partition b away, wait for failure, then heal.
	h.net.Partition(a.Addr(), b.Addr())
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(events)
		mu.Unlock()
		if n > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	h.net.Heal(a.Addr(), b.Addr())
	deadline = time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if da.Healthy(b.Addr()) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(events) < 2 || events[0] != "fail" || events[len(events)-1] != "recover" {
		t.Errorf("events = %v, want fail then recover", events)
	}
}

func TestFailureDetectorUnwatch(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	da := NewFailureDetector(a, FailureDetectorConfig{Interval: 20 * time.Millisecond})
	a.Start()
	b.Start()
	da.Watch(b.Addr())
	if got := len(da.Watched()); got != 1 {
		t.Fatalf("watched = %d, want 1", got)
	}
	da.Unwatch(b.Addr())
	if got := len(da.Watched()); got != 0 {
		t.Fatalf("after unwatch = %d, want 0", got)
	}
	if da.Healthy(b.Addr()) {
		t.Error("unwatched address should not report healthy")
	}
}

func TestFailureDetectorStopWithoutStart(t *testing.T) {
	h := newHarness(t, 1)
	d := NewFailureDetector(h.peers[0], FailureDetectorConfig{})
	d.Stop() // must not deadlock or panic
	d.Stop()
	d.Start() // no-op after stop
}
