// Package chaos drives seeded, randomized fault injection against a
// Whisper deployment: continuous b-peer crash–restart churn with
// configurable MTBF/MTTR, rolling network partitions and transient
// link degradation (extra delay, drops, duplication, corruption) over
// a simulated network. Chaos generates the fault schedule from a seed —
// the same seed always yields the same fault sequence — in the style
// of Jepsen-like randomized fault benchmarking. The companion Checker
// (invariants.go) verifies the system-level invariants the paper's
// fault-tolerance claims rest on.
package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"whisper/internal/metrics"
	"whisper/internal/simnet"
)

// Target is one crash–restartable component (b-peers satisfy it via a
// thin adapter; see bench.E10 and the soak test).
type Target interface {
	// Name identifies the target in the event log.
	Name() string
	// Addr is the target's transport address (used for partitions and
	// link degradation).
	Addr() string
	// Running reports whether the target is currently up.
	Running() bool
	// Crash kills the target abruptly (no farewell traffic).
	Crash() error
	// Restart revives a crashed target so it rejoins its group.
	Restart(ctx context.Context) error
}

// Config tunes the engine. MTBF/MTTR follow exponential distributions,
// so the steady-state per-target unavailability is MTTR/(MTBF+MTTR) —
// the quantity the paper's static-redundancy availability formula
// (A = 1 − U^n) is built from.
type Config struct {
	// Seed makes the generated fault sequence deterministic; zero
	// selects seed 1.
	Seed int64
	// MTBF is the mean time between failures per target; zero disables
	// crash–restart churn.
	MTBF time.Duration
	// MTTR is the mean time to repair a crashed target (default
	// MTBF/4).
	MTTR time.Duration
	// MinAlive keeps at least this many targets running; a crash that
	// would violate it is skipped and rescheduled. Zero selects the
	// default of 1; negative removes the floor entirely (even the last
	// target may crash, as a true availability measurement requires).
	MinAlive int
	// Network enables network faults when non-nil.
	Network *simnet.Network
	// Addrs are the addresses eligible for partitions and link
	// degradation (defaults to the targets' addresses).
	Addrs []string
	// PartitionMTBF is the mean interval between rolling partitions;
	// zero disables them.
	PartitionMTBF time.Duration
	// PartitionMTTR is the mean partition duration (default
	// PartitionMTBF/4).
	PartitionMTTR time.Duration
	// DegradeMTBF is the mean interval between link degradations; zero
	// disables them.
	DegradeMTBF time.Duration
	// DegradeMTTR is the mean degradation duration (default
	// DegradeMTBF/4).
	DegradeMTTR time.Duration
	// DegradeDelay is the extra one-way delay on a degraded link.
	DegradeDelay time.Duration
	// DropRate, DupRate and CorruptRate apply to a degraded link for
	// the duration of the degradation window.
	DropRate    float64
	DupRate     float64
	CorruptRate float64
	// Clock is the engine's time source (default simnet.WallClock);
	// inject a virtual clock to make fault pacing fully simulated.
	Clock simnet.Clock
}

// Event is one executed fault or repair.
type Event struct {
	// At is the offset from engine start.
	At time.Duration
	// Kind is the event class: "crash", "restart", "restart.failed",
	// "crash.skipped", "partition", "heal", "degrade" or "restore".
	Kind string
	// Detail names the affected target or link.
	Detail string
	// Err is the action's result (crash/restart errors are recorded,
	// not fatal).
	Err error
}

// Engine generates and executes the fault sequence. Create with New,
// drive with Run (blocking) and stop via the context; Quiesce then
// heals the network and revives every crashed target so invariants can
// be checked on a converged system.
type Engine struct {
	cfg     Config
	targets []Target
	rng     *rand.Rand
	clock   simnet.Clock
	counts  *metrics.Counter

	mu         sync.Mutex
	events     []Event
	partitions map[[2]string]bool
	degraded   map[[2]string]bool
}

// New creates an engine over the targets. The configuration is
// validated lazily: an engine with no churn and no network faults
// simply does nothing.
func New(cfg Config, targets ...Target) *Engine {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MTTR <= 0 {
		cfg.MTTR = cfg.MTBF / 4
	}
	if cfg.MinAlive == 0 {
		cfg.MinAlive = 1
	} else if cfg.MinAlive < 0 {
		cfg.MinAlive = 0
	}
	if cfg.PartitionMTTR <= 0 {
		cfg.PartitionMTTR = cfg.PartitionMTBF / 4
	}
	if cfg.DegradeMTTR <= 0 {
		cfg.DegradeMTTR = cfg.DegradeMTBF / 4
	}
	if len(cfg.Addrs) == 0 {
		for _, t := range targets {
			cfg.Addrs = append(cfg.Addrs, t.Addr())
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = simnet.WallClock{}
	}
	return &Engine{
		cfg:        cfg,
		targets:    targets,
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		clock:      cfg.Clock,
		counts:     metrics.NewCounter(),
		partitions: make(map[[2]string]bool),
		degraded:   make(map[[2]string]bool),
	}
}

// Counts returns the engine's event counters (labels match Event.Kind,
// plus "error" for failed crash/restart actions).
func (e *Engine) Counts() *metrics.Counter { return e.counts }

// Events returns the executed events so far.
func (e *Engine) Events() []Event {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Event(nil), e.events...)
}

// pending is one scheduled fault with an absolute offset from start.
type pending struct {
	at   time.Duration
	fire func(now time.Duration) // returns follow-up events via schedule
}

// Run executes the seeded fault sequence until ctx is done. Fault
// times are absolute offsets from start drawn once from the seeded
// generator, so the sequence (which target, which link, when) is
// identical for a given seed regardless of how long individual
// crash/restart actions take.
func (e *Engine) Run(ctx context.Context) {
	start := e.clock.Now()
	var queue []pending
	schedule := func(at time.Duration, fire func(now time.Duration)) {
		queue = append(queue, pending{at: at, fire: fire})
	}

	if e.cfg.MTBF > 0 {
		for _, t := range e.targets {
			e.scheduleCrash(ctx, schedule, t, e.expDur(e.cfg.MTBF))
		}
	}
	if e.cfg.Network != nil && e.cfg.PartitionMTBF > 0 && len(e.cfg.Addrs) >= 2 {
		e.schedulePartition(schedule, e.expDur(e.cfg.PartitionMTBF))
	}
	if e.cfg.Network != nil && e.cfg.DegradeMTBF > 0 && len(e.cfg.Addrs) >= 2 {
		e.scheduleDegrade(schedule, e.expDur(e.cfg.DegradeMTBF))
	}

	for len(queue) > 0 {
		// Pop the earliest event (stable for equal times: lowest index).
		best := 0
		for i, p := range queue {
			if p.at < queue[best].at {
				best = i
			}
		}
		next := queue[best]
		queue = append(queue[:best], queue[best+1:]...)

		if wait := next.at - e.clock.Now().Sub(start); wait > 0 {
			timer := time.NewTimer(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
		}
		if ctx.Err() != nil {
			return
		}
		next.fire(next.at)
	}
}

// scheduleCrash arms the next crash of t at offset `at`.
func (e *Engine) scheduleCrash(ctx context.Context, schedule func(time.Duration, func(time.Duration)), t Target, at time.Duration) {
	schedule(at, func(now time.Duration) {
		if !t.Running() || e.runningCount() <= e.cfg.MinAlive {
			e.record(Event{At: now, Kind: "crash.skipped", Detail: t.Name()})
			e.scheduleCrash(ctx, schedule, t, now+e.expDur(e.cfg.MTBF))
			return
		}
		err := t.Crash()
		e.record(Event{At: now, Kind: "crash", Detail: t.Name(), Err: err})
		repairAt := now + e.expDur(e.cfg.MTTR)
		schedule(repairAt, func(now time.Duration) {
			var err error
			if !t.Running() {
				err = t.Restart(ctx)
			}
			e.recordRestart(now, t, err)
			e.scheduleCrash(ctx, schedule, t, now+e.expDur(e.cfg.MTBF))
		})
	})
}

// schedulePartition arms the next rolling partition.
func (e *Engine) schedulePartition(schedule func(time.Duration, func(time.Duration)), at time.Duration) {
	a, b := e.pickPair()
	healAt := at + e.expDur(e.cfg.PartitionMTTR)
	schedule(at, func(now time.Duration) {
		e.cfg.Network.Partition(a, b)
		e.mu.Lock()
		e.partitions[[2]string{a, b}] = true
		e.mu.Unlock()
		e.record(Event{At: now, Kind: "partition", Detail: a + "|" + b})
	})
	schedule(healAt, func(now time.Duration) {
		e.cfg.Network.Heal(a, b)
		e.mu.Lock()
		delete(e.partitions, [2]string{a, b})
		e.mu.Unlock()
		e.record(Event{At: now, Kind: "heal", Detail: a + "|" + b})
		e.schedulePartition(schedule, now+e.expDur(e.cfg.PartitionMTBF))
	})
}

// scheduleDegrade arms the next transient link degradation: extra
// delay plus drop/duplication/corruption rates on one random link.
func (e *Engine) scheduleDegrade(schedule func(time.Duration, func(time.Duration)), at time.Duration) {
	a, b := e.pickPair()
	restoreAt := at + e.expDur(e.cfg.DegradeMTTR)
	schedule(at, func(now time.Duration) {
		e.applyDegrade(a, b, true)
		e.mu.Lock()
		e.degraded[[2]string{a, b}] = true
		e.mu.Unlock()
		e.record(Event{At: now, Kind: "degrade", Detail: a + "|" + b})
	})
	schedule(restoreAt, func(now time.Duration) {
		e.applyDegrade(a, b, false)
		e.mu.Lock()
		delete(e.degraded, [2]string{a, b})
		e.mu.Unlock()
		e.record(Event{At: now, Kind: "restore", Detail: a + "|" + b})
		e.scheduleDegrade(schedule, now+e.expDur(e.cfg.DegradeMTBF))
	})
}

func (e *Engine) applyDegrade(a, b string, on bool) {
	net := e.cfg.Network
	if on {
		net.SetLinkDelay(a, b, e.cfg.DegradeDelay)
		net.SetLinkDropRate(a, b, e.cfg.DropRate)
		net.SetLinkDuplicateRate(a, b, e.cfg.DupRate)
		net.SetLinkCorruptRate(a, b, e.cfg.CorruptRate)
		return
	}
	net.SetLinkDelay(a, b, 0)
	net.SetLinkDropRate(a, b, -1)
	net.SetLinkDuplicateRate(a, b, -1)
	net.SetLinkCorruptRate(a, b, -1)
}

// Quiesce heals every network fault the engine introduced and revives
// every crashed target, waiting for each restart to complete. Call it
// after Run returns, before checking convergence invariants.
func (e *Engine) Quiesce(ctx context.Context) error {
	e.mu.Lock()
	partitions := make([][2]string, 0, len(e.partitions))
	for k := range e.partitions {
		partitions = append(partitions, k)
	}
	degraded := make([][2]string, 0, len(e.degraded))
	for k := range e.degraded {
		degraded = append(degraded, k)
	}
	e.partitions = make(map[[2]string]bool)
	e.degraded = make(map[[2]string]bool)
	e.mu.Unlock()

	for _, k := range partitions {
		e.cfg.Network.Heal(k[0], k[1])
	}
	for _, k := range degraded {
		e.applyDegrade(k[0], k[1], false)
	}
	var firstErr error
	for _, t := range e.targets {
		if t.Running() {
			continue
		}
		err := t.Restart(ctx)
		e.recordRestart(0, t, err)
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("chaos: quiesce restart %s: %w", t.Name(), err)
		}
	}
	return firstErr
}

func (e *Engine) runningCount() int {
	n := 0
	for _, t := range e.targets {
		if t.Running() {
			n++
		}
	}
	return n
}

// pickPair draws two distinct fault-eligible addresses.
func (e *Engine) pickPair() (string, string) {
	addrs := e.cfg.Addrs
	i := e.rng.Intn(len(addrs))
	j := e.rng.Intn(len(addrs) - 1)
	if j >= i {
		j++
	}
	return addrs[i], addrs[j]
}

// expDur draws from an exponential distribution with the given mean,
// floored at 1ms so back-to-back events stay schedulable.
func (e *Engine) expDur(mean time.Duration) time.Duration {
	d := time.Duration(e.rng.ExpFloat64() * float64(mean))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// recordRestart files a repair under "restart" only if the target came
// back. A failed one (the run context ending mid-restart, typically)
// leaves the target down for Quiesce to revive, and that revival is the
// restart that pairs with the crash.
func (e *Engine) recordRestart(at time.Duration, t Target, err error) {
	kind := "restart"
	if err != nil {
		kind = "restart.failed"
	}
	e.record(Event{At: at, Kind: kind, Detail: t.Name(), Err: err})
}

func (e *Engine) record(ev Event) {
	e.mu.Lock()
	e.events = append(e.events, ev)
	e.mu.Unlock()
	e.counts.Add(ev.Kind, 1)
	if ev.Err != nil {
		e.counts.Add("error", 1)
	}
}
