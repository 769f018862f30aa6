package p2p

import (
	"sync"
	"time"

	"whisper/internal/simnet"
)

// FailureDetector is a ping/ack failure detector: it periodically pings
// every watched address and declares an address failed when no ack
// arrives within the timeout. It also answers inbound pings, so every
// peer that attaches a FailureDetector is observable. The b-peers use
// it to detect coordinator crashes and trigger Bully elections; its
// traffic is what the paper's Figure 4 accounts under steady-state
// group maintenance.
type FailureDetector struct {
	peer     *Peer
	interval time.Duration
	timeout  time.Duration

	mu      sync.Mutex
	watched map[string]*watchState
	// lastTick is when the ping loop last ran (zero before the first
	// tick).
	lastTick time.Time
	// onFailure and onRecovery are invoked outside the lock.
	onFailure  func(addr string)
	onRecovery func(addr string)

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	started  bool
	stopped  bool
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

// FailureDetectorConfig tunes the detector.
type FailureDetectorConfig struct {
	// Interval between pings to each watched address.
	Interval time.Duration
	// Timeout after which a silent address is declared failed. Must
	// exceed Interval; typical configurations use 3-4 intervals.
	Timeout time.Duration
	// OnFailure is invoked once when a watched address transitions to
	// failed. Optional.
	OnFailure func(addr string)
	// OnRecovery is invoked once when a failed address acks again.
	// Optional.
	OnRecovery func(addr string)
}

// NewFailureDetector attaches a failure detector to the peer. Call
// Start to begin pinging; Stop to shut down.
func NewFailureDetector(peer *Peer, cfg FailureDetectorConfig) *FailureDetector {
	if cfg.Interval <= 0 {
		cfg.Interval = 200 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 3 * cfg.Interval
	}
	d := &FailureDetector{
		peer:       peer,
		interval:   cfg.Interval,
		timeout:    cfg.Timeout,
		watched:    make(map[string]*watchState),
		onFailure:  cfg.OnFailure,
		onRecovery: cfg.OnRecovery,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	peer.Handle(ProtoHeartbeat, d.handleMessage)
	return d
}

// Watch begins monitoring the address. The address starts healthy.
func (d *FailureDetector) Watch(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.watched[addr]; !ok {
		d.watched[addr] = &watchState{lastAck: time.Now()}
	}
}

// Unwatch stops monitoring the address.
func (d *FailureDetector) Unwatch(addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.watched, addr)
}

// Watched returns the monitored addresses.
func (d *FailureDetector) Watched() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, 0, len(d.watched))
	for a := range d.watched {
		out = append(out, a)
	}
	return out
}

// Healthy reports whether the address is currently considered alive.
// Unwatched addresses report false.
func (d *FailureDetector) Healthy(addr string) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, ok := d.watched[addr]
	return ok && !st.failed
}

// Start launches the ping loop. Idempotent.
func (d *FailureDetector) Start() {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return
	}
	d.started = true
	d.mu.Unlock()
	go d.loop()
}

// Stop terminates the ping loop and waits for it to exit. Safe to
// call concurrently and more than once; Start after Stop is a no-op.
func (d *FailureDetector) Stop() {
	d.mu.Lock()
	waitForLoop := d.started && !d.stopped
	d.stopped = true
	d.started = true // prevent a later Start
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })
	if waitForLoop {
		<-d.done
	}
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
	var failures []string

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
	targets := make([]string, 0, len(d.watched))
	for addr, st := range d.watched {
		st.lastAck = st.lastAck.Add(late)
		if !st.failed && now.Sub(st.lastAck) > d.timeout {
			st.failed = true
			failures = append(failures, addr)
		}
		targets = append(targets, addr)
	}
	d.mu.Unlock()

	for _, addr := range targets {
		// Ping regardless of failed state so recovery is observable.
		_ = d.peer.Send(addr, simnet.Message{Proto: ProtoHeartbeat, Kind: kindPing})
	}
	for _, addr := range failures {
		if d.onFailure != nil {
			d.onFailure(addr)
		}
	}
}

func (d *FailureDetector) handleMessage(msg simnet.Message) {
	switch msg.Kind {
	case kindPing:
		_ = d.peer.Send(msg.Src, simnet.Message{Proto: ProtoHeartbeat, Kind: kindPong})
	case kindPong:
		var recovered bool
		d.mu.Lock()
		if st, ok := d.watched[msg.Src]; ok {
			st.lastAck = time.Now()
			if st.failed {
				st.failed = false
				recovered = true
			}
		}
		d.mu.Unlock()
		if recovered && d.onRecovery != nil {
			d.onRecovery(msg.Src)
		}
	}
}
