package proxy

import (
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state for one b-peer group.
type BreakerState int

const (
	// BreakerClosed lets every attempt through (healthy group).
	BreakerClosed BreakerState = iota
	// BreakerOpen fails attempts fast after too many consecutive
	// infrastructure failures (group presumed down).
	BreakerOpen
	// BreakerHalfOpen lets a single probe through after the cooldown;
	// its outcome decides between Closed and Open.
	BreakerHalfOpen
)

// String renders the state for metrics and peerctl.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is a per-group circuit breaker. Only infrastructure failures
// (transport errors, unreachable coordinators, "no coordinator
// elected") count against it; application-level errors prove the group
// is reachable and reset it. All methods are safe for concurrent use.
type breaker struct {
	mu          sync.Mutex
	threshold   int           // consecutive infra failures that open it
	cooldown    time.Duration // open → half-open delay
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight

	// onTransition observes state changes (metrics); called outside
	// the lock.
	onTransition func(from, to BreakerState)
}

func newBreaker(threshold int, cooldown time.Duration, onTransition func(from, to BreakerState)) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, onTransition: onTransition}
}

// Allow reports whether an attempt may proceed now. In the open state
// it fails fast until the cooldown elapses, then admits exactly one
// half-open probe at a time.
func (b *breaker) Allow(now time.Time) bool {
	b.mu.Lock()
	switch b.state {
	case BreakerClosed:
		b.mu.Unlock()
		return true
	case BreakerOpen:
		if now.Sub(b.openedAt) < b.cooldown {
			b.mu.Unlock()
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		b.mu.Unlock()
		b.notify(BreakerOpen, BreakerHalfOpen)
		return true
	default: // BreakerHalfOpen
		if b.probing {
			b.mu.Unlock()
			return false
		}
		b.probing = true
		b.mu.Unlock()
		return true
	}
}

// Success records a successful attempt (or an application-level answer,
// which equally proves the group reachable) and closes the breaker.
func (b *breaker) Success() {
	b.mu.Lock()
	from := b.state
	b.state = BreakerClosed
	b.consecutive = 0
	b.probing = false
	b.mu.Unlock()
	if from != BreakerClosed {
		b.notify(from, BreakerClosed)
	}
}

// Failure records an infrastructure failure. A failed half-open probe
// reopens immediately; in the closed state the breaker opens once the
// consecutive-failure threshold is reached.
func (b *breaker) Failure(now time.Time) {
	b.mu.Lock()
	b.consecutive++
	from := b.state
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.probing = false
	case BreakerClosed:
		if b.consecutive >= b.threshold {
			b.state = BreakerOpen
			b.openedAt = now
		}
	}
	to := b.state
	b.mu.Unlock()
	if from != to {
		b.notify(from, to)
	}
}

// ProbePending reports whether the breaker's next Allow would admit a
// half-open probe: the group is condemned (open past its cooldown, or
// half-open with no probe in flight) and the next attempt is the one
// that decides recovery. The admission controller bypasses every shed
// stage for such attempts — a shed probe would leave the breaker open
// forever. Nil-safe: a nil breaker has no probes.
func (b *breaker) ProbePending(now time.Time) bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		return now.Sub(b.openedAt) >= b.cooldown
	case BreakerHalfOpen:
		return !b.probing
	}
	return false
}

// State returns the current state.
func (b *breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

func (b *breaker) notify(from, to BreakerState) {
	if b.onTransition != nil {
		b.onTransition(from, to)
	}
}

// allow, eligible and settle are the invoke loop's nil-safe hooks (a
// nil breaker means circuit breaking is disabled or the target keeps
// none).
func (b *breaker) allow(now time.Time) bool { return b == nil || b.Allow(now) }

// eligible reports whether Allow would admit an attempt now, without
// consuming the half-open probe: a caller that tests several breakers
// and then calls through only one must not leave the others waiting
// for a probe outcome nobody will report.
func (b *breaker) eligible(now time.Time) bool {
	return b == nil || b.State() == BreakerClosed || b.ProbePending(now)
}

// settle records an attempt's outcome: healthy means the peer answered
// (successfully or with an application-level rejection).
func (b *breaker) settle(healthy bool) {
	switch {
	case b == nil:
	case healthy:
		b.Success()
	default:
		b.Failure(time.Now())
	}
}
