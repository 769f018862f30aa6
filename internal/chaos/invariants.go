package chaos

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Checker accumulates invariant verdicts during a chaos run. The four
// invariants mirror the guarantees the paper's fault-tolerant
// architecture promises its clients:
//
//  1. No lost acknowledged request: every response the proxy returns
//     as success must decode to the payload the service computed
//     (corruption or replay must never surface as a silent wrong
//     answer).
//  2. The proxy never deadlocks: every call returns within its
//     context deadline plus a small grace period.
//  3. Single coordinator: once churn stops and the system quiesces,
//     all running replicas converge on exactly one coordinator that
//     is itself running.
//  4. No stale follower read: a read issued at read-index N never
//     observes a committed prefix older than N (the replica's
//     WaitCommitted barrier held).
//  5. Bounded dissemination: every advertisement published to the
//     sharded discovery fleet becomes visible on all live shards
//     within the gossip convergence bound, counted in gossip rounds.
//  6. No resurrection: an advertisement removed by tombstone (or
//     expiry) never reappears on any shard — stale live copies must
//     lose to the tombstone's version everywhere.
//
// All methods are safe for concurrent use by client workers.
type Checker struct {
	mu           sync.Mutex
	violations   []string
	acked        int64
	failed       int64
	reads        int64
	convergences int64
}

// NewChecker creates an empty checker.
func NewChecker() *Checker { return &Checker{} }

// RecordResponse records an acknowledged (successful) call. got must
// equal want; a mismatch means an acknowledged request was lost or
// corrupted in flight — invariant 1.
func (c *Checker) RecordResponse(id, got, want string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.acked++
	if got != want {
		c.violations = append(c.violations,
			fmt.Sprintf("acked request %s corrupted: got %q, want %q", id, got, want))
	}
}

// RecordFailure records a call the proxy answered with an error.
// Failures are allowed under churn (availability is measured, not
// asserted); they only feed the availability ratio.
func (c *Checker) RecordFailure(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failed++
	_ = id
}

// RecordOverdue records a call that outlived its context deadline by
// more than the grace period — invariant 2 (proxy deadlock / unbounded
// blocking).
func (c *Checker) RecordOverdue(id string, took, limit time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations,
		fmt.Sprintf("call %s took %v, deadline+grace was %v (proxy must return within its deadline)", id, took, limit))
}

// RecordRead records one follower-served read: the read-index it was
// issued at and the committed sequence the serving replica had applied
// when it executed. observedSeq < readIndex means the replica served
// stale state past the barrier — invariant 4. Wire it to the proxy's
// ReadObserver (id names the serving replica).
func (c *Checker) RecordRead(id string, readIndex, observedSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reads++
	if observedSeq < readIndex {
		c.violations = append(c.violations,
			fmt.Sprintf("stale read from %s: observed seq %d < read-index %d", id, observedSeq, readIndex))
	}
}

// Reads returns how many follower-served reads were checked.
func (c *Checker) Reads() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reads
}

// RecordConvergence records one advertisement's measured dissemination
// across the live shard fleet, in gossip rounds: a bound in rounds
// holds on a loaded host, where rounds and wall-clock time part ways.
// rounds > bound means the epidemic failed invariant 5 (the publish
// stayed invisible on some live shard past the convergence bound).
func (c *Checker) RecordConvergence(key string, rounds, bound uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.convergences++
	if rounds > bound {
		c.violations = append(c.violations,
			fmt.Sprintf("advertisement %s took %d gossip rounds to reach all live shards, bound was %d", key, rounds, bound))
	}
}

// Convergences returns how many dissemination measurements were
// checked.
func (c *Checker) Convergences() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.convergences
}

// RecordResurrection records invariant 6's violation: an advertisement
// removed by tombstone or expiry reappeared on a shard.
func (c *Checker) RecordResurrection(key, shard string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations,
		fmt.Sprintf("dead advertisement %s resurrected on shard %s", key, shard))
}

// Violationf records an arbitrary invariant violation.
func (c *Checker) Violationf(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.violations = append(c.violations, fmt.Sprintf(format, args...))
}

// Acked and Failed return the call outcome tallies; their ratio is the
// measured availability.
func (c *Checker) Acked() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.acked
}

func (c *Checker) Failed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failed
}

// Availability returns acked/(acked+failed), or 0 with no calls.
func (c *Checker) Availability() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.acked + c.failed
	if total == 0 {
		return 0
	}
	return float64(c.acked) / float64(total)
}

// Violations returns the recorded invariant violations.
func (c *Checker) Violations() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.violations...)
}

// Ok reports whether no invariant was violated.
func (c *Checker) Ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.violations) == 0
}

// CoordView is a snapshot of the group's coordinator beliefs, keyed by
// running replica name.
type CoordView struct {
	// Coordinators maps each running replica to the coordinator
	// address it believes in ("" when unknown).
	Coordinators map[string]string
	// Addrs maps each running replica to its own address.
	Addrs map[string]string
}

// converged reports whether the view satisfies invariant 3 and, when
// it does not, why.
func (v CoordView) converged() (bool, string) {
	if len(v.Coordinators) == 0 {
		return false, "no running replicas"
	}
	var coord string
	for name, c := range v.Coordinators {
		if c == "" {
			return false, fmt.Sprintf("replica %s has no coordinator", name)
		}
		if coord == "" {
			coord = c
		} else if c != coord {
			return false, fmt.Sprintf("split view: %s vs %s", c, coord)
		}
	}
	for _, addr := range v.Addrs {
		if addr == coord {
			return true, ""
		}
	}
	return false, fmt.Sprintf("coordinator %s is not a running replica", coord)
}

// WaitSingleCoordinator polls the view until every running replica
// agrees on exactly one coordinator that is itself running, or ctx
// expires — in which case a violation is recorded and an error
// returned. Call after Engine.Quiesce.
func (c *Checker) WaitSingleCoordinator(ctx context.Context, view func() CoordView) error {
	var lastReason string
	for {
		v := view()
		ok, reason := v.converged()
		if ok {
			return nil
		}
		lastReason = reason
		select {
		case <-ctx.Done():
			c.Violationf("no single-coordinator convergence after quiesce: %s", lastReason)
			return fmt.Errorf("chaos: convergence: %s: %w", lastReason, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}
