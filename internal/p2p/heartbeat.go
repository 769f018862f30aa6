package p2p

import (
	"slices"
	"sync"
	"time"

	"whisper/internal/simnet"
)

// Liveness is the party a FailureDetector works for: it says whom to
// ping, receives what the heartbeats show, and supplies the one value
// they all carry. The b-peers' group membership implements it.
type Liveness interface {
	// Beat is called once per interval and returns the addresses to
	// ping until the next.
	Beat() []string
	// Stamp returns the value every ping and pong carries ("" for
	// none). It is called per message and must be cheap.
	Stamp() string
	// Heard reports a ping or pong from src and the stamp it carried.
	Heard(src, stamp string)
	// Silent reports, once per silence, a pinged address that has not
	// answered for the timeout.
	Silent(addr string)
}

// FailureDetector is a ping/ack failure detector: every interval it
// pings the addresses its Liveness names and declares one silent when
// no ack arrives within the timeout. It also answers inbound pings, so
// every peer that attaches a FailureDetector is observable. The b-peers
// use it to detect coordinator crashes and trigger Bully elections; its
// traffic is what the paper's Figure 4 accounts under steady-state
// group maintenance.
type FailureDetector struct {
	peer     *Peer
	lv       Liveness
	interval time.Duration
	timeout  time.Duration

	mu      sync.Mutex
	watched map[string]*watchState
	// lastTick is when the ping loop last ran (zero before the first
	// tick).
	lastTick time.Time
	// stamp is the value the cached headers carry; the map is shared by
	// every message sent until the stamp changes and never written.
	stamp   string
	headers map[string]string

	// startOnce is spent by whichever comes first: Start, which launches
	// the loop, or Stop, which then has no loop to wait for.
	startOnce, stopOnce sync.Once
	stop, done          chan struct{}
}

type watchState struct {
	lastAck time.Time
	failed  bool
}

// Heartbeat message kinds.
const (
	kindPing = "ping"
	kindPong = "pong"
)

// hdrStamp is the heartbeat header carrying Liveness.Stamp.
const hdrStamp = "c"

// NewFailureDetector attaches a failure detector to the peer: it pings
// every interval and declares an address silent after timeout, which
// must exceed the interval (typically 3-4 of them). Call Start to begin
// pinging; Stop to shut down.
func NewFailureDetector(peer *Peer, lv Liveness, interval, timeout time.Duration) *FailureDetector {
	d := &FailureDetector{
		peer:     peer,
		lv:       lv,
		interval: interval,
		timeout:  timeout,
		watched:  make(map[string]*watchState),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	peer.Handle(ProtoHeartbeat, d.handleMessage)
	return d
}

// Start launches the ping loop. Idempotent; a no-op after Stop.
func (d *FailureDetector) Start() {
	d.startOnce.Do(func() { go d.loop() })
}

// Stop terminates the ping loop and waits for it to exit. Safe to
// call concurrently and more than once.
func (d *FailureDetector) Stop() {
	d.stopOnce.Do(func() { close(d.stop) })
	d.startOnce.Do(func() { close(d.done) })
	<-d.done
}

func (d *FailureDetector) loop() {
	defer close(d.done)
	ticker := time.NewTicker(d.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			d.tick(time.Now())
		case <-d.stop:
			return
		}
	}
}

func (d *FailureDetector) tick(now time.Time) {
	targets := d.lv.Beat()
	var silent []string

	d.mu.Lock()
	// A detector that did not run — the process was paused, the host
	// stalled — cannot tell a silent peer from its own absence: acks
	// were neither asked for nor read meanwhile, so the time a tick is
	// late by is not held against the watched addresses.
	late := now.Sub(d.lastTick) - d.interval
	if d.lastTick.IsZero() || late < d.interval {
		late = 0
	}
	d.lastTick = now
	for addr := range d.watched {
		if !slices.Contains(targets, addr) {
			delete(d.watched, addr)
		}
	}
	for _, addr := range targets {
		st := d.watched[addr]
		if st == nil {
			// A new target starts healthy.
			d.watched[addr] = &watchState{lastAck: now}
			continue
		}
		st.lastAck = st.lastAck.Add(late)
		if !st.failed && now.Sub(st.lastAck) > d.timeout {
			st.failed = true
			silent = append(silent, addr)
		}
	}
	d.mu.Unlock()

	headers := d.stampHeaders()
	for _, addr := range targets {
		// Ping regardless of failed state so recovery is observable.
		_ = d.peer.Send(addr, simnet.Message{Proto: ProtoHeartbeat, Kind: kindPing, Headers: headers})
	}
	for _, addr := range silent {
		d.lv.Silent(addr)
	}
}

// stampHeaders returns the headers of an outgoing heartbeat, rebuilt
// only when the stamp has changed since the last one.
func (d *FailureDetector) stampHeaders() map[string]string {
	stamp := d.lv.Stamp()
	d.mu.Lock()
	defer d.mu.Unlock()
	if stamp != d.stamp {
		d.stamp, d.headers = stamp, nil
		if stamp != "" {
			d.headers = map[string]string{hdrStamp: stamp}
		}
	}
	return d.headers
}

func (d *FailureDetector) handleMessage(msg simnet.Message) {
	switch msg.Kind {
	case kindPing:
		_ = d.peer.Send(msg.Src, simnet.Message{Proto: ProtoHeartbeat, Kind: kindPong, Headers: d.stampHeaders()})
	case kindPong:
		d.mu.Lock()
		if st, ok := d.watched[msg.Src]; ok {
			st.lastAck = time.Now()
			st.failed = false
		}
		d.mu.Unlock()
	default:
		return
	}
	d.lv.Heard(msg.Src, msg.Header(hdrStamp))
}
