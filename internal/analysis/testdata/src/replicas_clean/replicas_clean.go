// True-negative golden file distilled from the proxy's replica policies
// (proxy/replicas.go): snapshot-under-lock with the network call outside
// the critical section, ctx threading through the invocation path,
// filtered in-place replica drops, and weighted selection over a
// snapshot. Every analyzer in the suite must read
// this as clean — zero diagnostics.
package replicascleantest

import (
	"context"
	"sync"
	"time"
)

type replica struct {
	addr  string
	score float64
}

type balancer struct {
	mu       sync.Mutex
	replicas []*replica
}

// snapshot copies the set under the lock so callers never invoke the
// network while holding it (the lockheld discipline).
func (b *balancer) snapshot() []*replica {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]*replica, len(b.replicas))
	copy(out, b.replicas)
	return out
}

// drop filters in place: reslicing to zero length reuses the backing
// array, so churn does not reallocate.
func (b *balancer) drop(addr string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	kept := b.replicas[:0]
	for _, r := range b.replicas {
		if r.addr != addr {
			kept = append(kept, r)
		}
	}
	b.replicas = kept
}

// pick draws over the snapshot, outside the lock.
func (b *balancer) pick() *replica {
	reps := b.snapshot()
	var best *replica
	for _, r := range reps {
		if best == nil || r.score > best.score {
			best = r
		}
	}
	return best
}

type caller interface {
	Call(ctx context.Context, addr string, req []byte) ([]byte, error)
}

// invoke threads ctx through the blocking call and retries on another
// replica with a cancellable backoff.
func invoke(ctx context.Context, c caller, b *balancer, req []byte) ([]byte, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		r := b.pick()
		if r == nil {
			break
		}
		resp, err := c.Call(ctx, r.addr, req)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		b.drop(r.addr)
		select {
		case <-time.After(time.Duration(attempt+1) * 10 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}
