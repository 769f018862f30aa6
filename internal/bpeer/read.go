package bpeer

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/trace"
)

// Follower read serving (the read-index/lease protocol).
//
// The paper routes every request through the Bully-elected coordinator,
// capping group throughput at one node. The replicated journal gives
// every replica a consistent committed prefix, which makes follower
// reads safe under one barrier: a read must not execute until the local
// prefix has reached the committed sequence the read was issued at.
//
//	follower                         coordinator
//	   │  ── bpeer.readindex ──────────▶ │   (skipped while the
//	   │  ◀───── committed seq N ─────── │    lease is fresh)
//	   │ WaitCommitted(N)                │
//	   │ ...apply loop reaches N...      │
//	   │ execute read locally            │
//	   ▼ reply {ReadIndex:N, ReadSeq:M}  │   invariant: M >= N
//
// A clock-bounded lease (Config.ReadLease) lets the follower reuse a
// fetched index for a short window, amortising the round-trip across
// many reads. The lease only ever makes the index OLDER than the
// coordinator's current prefix, which keeps the staleness invariant
// intact — it trades recency, never consistency.

// readIndexHandler answers the coordinator's (or any replica's)
// current committed sequence; registered on ProtoBinding.
const readIndexHandler = "bpeer.readindex"

// ErrMsgReadUnavailable is returned when a follower cannot obtain a
// read index (coordinator unreachable mid-election) or cannot reach it
// before the handler deadline (apply loop lagging too far). It is a
// retryable infrastructure error: the proxy redirects the read to
// another replica.
const ErrMsgReadUnavailable = "read index unavailable"

// readLease caches the last coordinator-issued read index.
type readLease struct {
	mu sync.Mutex
	// coord is the coordinator the index was fetched from; a
	// coordinator change invalidates the lease immediately.
	coord string
	idx   uint64
	at    time.Time
}

// isReadOnlyOp reports whether op is in the configured read-only set.
func (b *BPeer) isReadOnlyOp(op string) bool {
	for _, ro := range b.cfg.ReadOnlyOps {
		if ro == op {
			return true
		}
	}
	return false
}

// readResponse serves one marked read locally: obtain a read index,
// wait for the local committed prefix to reach it, execute the handler,
// and answer with the (index, observed seq) pair the staleness
// invariant is checked against. Runs on its own goroutine — the serve
// loop must never block on a lagging apply loop; the caller sends the
// response and ends the request span.
func (b *BPeer) readResponse(span *trace.Span, req peerRequest) (resp peerResponse, failingOver bool) {
	resp = peerResponse{Status: statusError}
	span.SetAttr("read", "local")
	ctx, cancel := context.WithTimeout(trace.ContextWith(b.lifecycleCtx(), span), handlerTimeout)
	defer cancel()

	idx, err := b.readIndex(ctx)
	if err != nil {
		resp.Error = err.Error()
		return resp, false
	}
	span.SetAttr("read.index", strconv.FormatUint(idx, 10))
	if err := b.journal.WaitCommitted(ctx, idx); err != nil {
		// Barrier not reached before the deadline: the apply loop is
		// lagging badly. Never serve stale — answer retryably so the
		// proxy redirects to a caught-up replica.
		resp.Error = ErrMsgReadUnavailable
		return resp, false
	}
	// The prefix only grows, so sampling after the barrier gives the
	// smallest sequence this read could have observed.
	seq := b.journal.ReadIndex()

	resp, failingOver = b.unjournaledResponse(ctx, req)
	if resp.Status == statusOK {
		resp.ReadIndex = idx
		resp.ReadSeq = seq
	}
	return resp, failingOver
}

// readIndex returns the committed sequence a read issued now must
// observe. The coordinator answers from its own journal; a follower
// asks the coordinator, reusing a lease-fresh answer when it has one.
func (b *BPeer) readIndex(ctx context.Context) (uint64, error) {
	if b.IsCoordinator() {
		return b.journal.ReadIndex(), nil
	}
	coord := b.Coordinator()
	if coord == "" {
		return 0, fmt.Errorf("%s", ErrMsgNoCoordinator)
	}
	lease := b.lease
	lease.mu.Lock()
	if lease.coord == coord && time.Since(lease.at) < b.cfg.ReadLease {
		idx := lease.idx
		lease.mu.Unlock()
		return idx, nil
	}
	lease.mu.Unlock()

	idx, err := QueryReadIndex(ctx, b.bind, coord)
	if err != nil {
		return 0, fmt.Errorf("%s", ErrMsgReadUnavailable)
	}
	lease.mu.Lock()
	// Another fetch may have raced ahead; keep the largest index so a
	// lease never moves backwards under a fixed coordinator.
	if lease.coord != coord || idx >= lease.idx {
		lease.coord = coord
		lease.idx = idx
		lease.at = time.Now()
	}
	lease.mu.Unlock()
	return idx, nil
}

// answerReadIndex serves this replica's current committed sequence.
// Followers answer too — their (lagging) index is what peerctl uses to
// display replication lag — but the read protocol only ever queries
// the peer it believes is the coordinator.
func (b *BPeer) answerReadIndex(_ string, _ []byte) ([]byte, error) {
	if b.journal == nil {
		return nil, fmt.Errorf("journal disabled")
	}
	return []byte(strconv.FormatUint(b.journal.ReadIndex(), 10)), nil
}

// QueryReadIndex asks a replica for its current committed sequence
// (the read-index protocol; also the peerctl "readindex" subcommand).
func QueryReadIndex(ctx context.Context, r *p2p.Resolver, memberAddr string) (uint64, error) {
	payload, err := r.Query(ctx, memberAddr, readIndexHandler, nil)
	if err != nil {
		return 0, err
	}
	idx, err := strconv.ParseUint(string(payload), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bpeer: malformed read index %q", payload)
	}
	return idx, nil
}
