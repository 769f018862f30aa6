package p2p

import (
	"sync"
	"testing"
	"time"
)

// beats is a scripted Liveness: a settable target list and stamp, and a
// record of what the detector reported.
type beats struct {
	mu      sync.Mutex
	targets []string
	stamp   string
	silent  []string
	heard   []string // "src stamp" per heartbeat received
}

func (b *beats) watch(addrs ...string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.targets = addrs
}

func (b *beats) Beat() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.targets...)
}

func (b *beats) Stamp() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stamp
}

func (b *beats) Heard(src, stamp string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.heard = append(b.heard, src+" "+stamp)
}

func (b *beats) Silent(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.silent = append(b.silent, addr)
}

func (b *beats) silences() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.silent...)
}

func (b *beats) heardFrom() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.heard...)
}

func waitFor(t *testing.T, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !ok() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFailureDetectorHealthyPeerStaysHealthy(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	la, lb := &beats{stamp: "3 7"}, &beats{stamp: "2 6"}
	la.watch(b.Addr())
	da := NewFailureDetector(a, la, 20*time.Millisecond, 80*time.Millisecond)
	NewFailureDetector(b, lb, 20*time.Millisecond, 80*time.Millisecond)
	a.Start()
	b.Start()
	da.Start()
	t.Cleanup(da.Stop)

	time.Sleep(200 * time.Millisecond)
	if got := la.silences(); len(got) != 0 {
		t.Errorf("responsive peer reported silent: %v", got)
	}
	// Every ping and pong carries its sender's stamp.
	if got := lb.heardFrom(); len(got) == 0 || got[0] != a.Addr()+" 3 7" {
		t.Errorf("pinged side heard %v, want pings from %s stamped 3 7", got, a.Addr())
	}
	if got := la.heardFrom(); len(got) == 0 || got[0] != b.Addr()+" 2 6" {
		t.Errorf("pinging side heard %v, want pongs from %s stamped 2 6", got, b.Addr())
	}
}

func TestFailureDetectorDetectsCrash(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	la := &beats{}
	la.watch(b.Addr())
	da := NewFailureDetector(a, la, 20*time.Millisecond, 80*time.Millisecond)
	NewFailureDetector(b, &beats{}, 20*time.Millisecond, 80*time.Millisecond)
	a.Start()
	b.Start()
	da.Start()
	t.Cleanup(da.Stop)

	time.Sleep(100 * time.Millisecond) // establish health
	bAddr := b.Addr()
	_ = b.Close() // crash

	waitFor(t, "failure never detected", func() bool { return len(la.silences()) > 0 })
	time.Sleep(100 * time.Millisecond)
	if got := la.silences(); len(got) != 1 || got[0] != bAddr {
		t.Errorf("silences = %v, want [%s] reported once", got, bAddr)
	}
}

// A detector that was itself paused (SIGSTOP, a stalled host) must not
// accuse a peer of the silence it slept through — only of silence it
// was awake to observe.
func TestFailureDetectorForgivesItsOwnPause(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	la := &beats{}
	la.watch(b.Addr())
	d := NewFailureDetector(a, la, 50*time.Millisecond, 200*time.Millisecond)
	a.Start()
	// b never starts, so no ack ever moves lastAck: the test drives the
	// ticks by hand and owns the clock.
	t0 := time.Now()
	d.tick(t0)
	d.tick(t0.Add(50 * time.Millisecond))
	// The process stops for 300 ms: the next tick comes 350 ms later.
	at := t0.Add(400 * time.Millisecond)
	d.tick(at)
	if got := la.silences(); len(got) != 0 {
		t.Fatalf("accused %v after a pause of the detector itself", got)
	}
	// Awake again, silence counts: 200 ms of it in all is the timeout.
	for i := 0; i < 3 && len(la.silences()) == 0; i++ {
		at = at.Add(50 * time.Millisecond)
		d.tick(at)
	}
	if got := la.silences(); len(got) != 1 || got[0] != b.Addr() {
		t.Fatalf("silences = %v, want [%s] once the observed silence passes the timeout", got, b.Addr())
	}
}

// A target reported silent keeps being pinged, so its return is heard
// of; once it has answered, a second silence is reported again.
func TestFailureDetectorRecovery(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	la := &beats{}
	la.watch(b.Addr())
	da := NewFailureDetector(a, la, 20*time.Millisecond, 80*time.Millisecond)
	NewFailureDetector(b, &beats{}, 20*time.Millisecond, 80*time.Millisecond)
	a.Start()
	b.Start()
	da.Start()
	t.Cleanup(da.Stop)

	h.net.Partition(a.Addr(), b.Addr())
	waitFor(t, "partitioned peer never reported silent", func() bool { return len(la.silences()) == 1 })
	heard := len(la.heardFrom())
	h.net.Heal(a.Addr(), b.Addr())
	waitFor(t, "healed peer never heard from", func() bool { return len(la.heardFrom()) > heard })

	h.net.Partition(a.Addr(), b.Addr())
	waitFor(t, "second silence never reported", func() bool { return len(la.silences()) == 2 })
}

// An address the Liveness stops naming is neither pinged nor reported.
func TestFailureDetectorUnwatch(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	la := &beats{}
	la.watch(b.Addr())
	d := NewFailureDetector(a, la, 20*time.Millisecond, 80*time.Millisecond)
	a.Start()
	// b never starts: it is silent from the first ping on.
	t0 := time.Now()
	d.tick(t0)
	la.watch()
	before := h.net.Stats().PerProto[ProtoHeartbeat].Messages
	d.tick(t0.Add(time.Second))
	if got := h.net.Stats().PerProto[ProtoHeartbeat].Messages - before; got != 0 {
		t.Errorf("%d pings sent to an address no longer watched", got)
	}
	if got := la.silences(); len(got) != 0 {
		t.Errorf("silences = %v for an address no longer watched", got)
	}
	// Watched again, it starts healthy.
	la.watch(b.Addr())
	d.tick(t0.Add(2 * time.Second))
	if got := la.silences(); len(got) != 0 {
		t.Errorf("silences = %v on the first beat of a new watch", got)
	}
}

func TestFailureDetectorStopWithoutStart(t *testing.T) {
	h := newHarness(t, 1)
	d := NewFailureDetector(h.peers[0], &beats{}, time.Second, 3*time.Second)
	d.Stop() // must not deadlock or panic
	d.Stop()
	d.Start() // no-op after stop
}
