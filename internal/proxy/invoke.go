package proxy

import (
	"context"
	"errors"
	"fmt"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/loadctl"
	"whisper/internal/replog"
)

// The invocation pipeline (paper §3.2, §5). After discovery the proxy
// has one job — bind to a replica of the matched group, call it, and
// re-bind when it fails — and one loop that does it:
//
//	admit → candidates(group) → policy.pick → attempt → classify → settle
//
// InvokeGroup admits the request and chooses the replicaPolicy
// (replicas.go) from what the advertisement and the operation say;
// invokeVia is the single retry/backoff/breaker loop; attempt is the
// single pipe round trip; classify turns its result into the outcome
// the loop settles.

// outcome is what one attempt told the loop to do next.
type outcome int

const (
	// outOK: the target served the request.
	outOK outcome = iota
	// outAppError: the handler rejected the request; the infrastructure
	// worked and the answer is authoritative.
	outAppError
	// outRedirect: the target answered but is the wrong one to ask.
	outRedirect
	// outInfraNext: the target is broken; try a sibling now.
	outInfraNext
	// outInfraWait: the group is electing (or its only useful target is
	// gone); back off before re-binding.
	outInfraWait
)

// healthy reports whether the outcome proves the target and its group
// reachable; every other outcome counts against their breakers.
func (o outcome) healthy() bool { return o == outOK || o == outAppError || o == outRedirect }

// classify maps one attempt's result onto its outcome. callErr is a
// transport failure or an undecodable reply; siblings is the policy's
// answer to "is there another replica worth trying right now". An
// unknown status is as untrustworthy as an undecodable reply.
func classify(callErr error, resp bpeer.Response, siblings bool) outcome {
	broken := outInfraWait
	if siblings {
		broken = outInfraNext
	}
	switch {
	case callErr != nil:
		return broken
	case resp.Status == "ok":
		return outOK
	case resp.Status == "redirect":
		return outRedirect
	case resp.Status == "error" && bpeer.IsInfraErrMsg(resp.Error):
		// "no coordinator elected" and similar come from a live replica:
		// the group, not the target, is in transition.
		return outInfraWait
	case resp.Status == "error":
		return outAppError
	}
	return broken
}

// InvokeGroup sends one request to a specific group, bypassing
// discovery and QoS ranking (the QoS ablation uses it directly as the
// "semantics-only, random selection" baseline). It is the admit stage:
// it picks the replica policy, encodes the request once, and runs the
// attempt loop under admission control.
func (p *SWSProxy) InvokeGroup(ctx context.Context, adv *bpeer.SemanticAdvertisement, op string, payload []byte) ([]byte, error) {
	pol := coordinatorPolicy
	if adv.IsReadOp(op) {
		// Read-only ops on journaling groups: any replica serves them
		// behind the read-index barrier, so the proxy spreads them
		// QoS-weighted across the whole group instead of funnelling
		// into the coordinator.
		pol = readPolicy
	}
	// Encoded once, outside the attempt loop: the idempotency key in
	// the wire request is structurally identical for every attempt of
	// this logical call (including breaker half-open probes). Reads
	// are unkeyed — they never enter the journal — and carry the
	// ReadOnly mark instead.
	var req []byte
	var err error
	if pol.read {
		req, err = bpeer.EncodeReadRequest(op, payload)
	} else {
		req, err = bpeer.EncodeRequest(op, payload, replog.KeyFromContext(ctx))
	}
	if err != nil {
		return nil, fmt.Errorf("proxy: encode request: %w", err)
	}
	gs := p.groupFor(adv.GID)
	adm := p.cfg.Admission
	if adm == nil {
		return p.invokeVia(ctx, adv, gs, pol, req)
	}
	// Admission runs once per group invocation, wrapping the whole
	// attempt loop: a rejection here happens before any binding lookup
	// or pipe I/O, and the release below feeds the full logical-call
	// latency (retries included) to the AIMD limiter. A pending
	// half-open probe bypasses every shed stage — it is the only way
	// the breaker can learn a condemned group recovered.
	release, aerr := adm.Admit(ctx, loadctl.ClientFromContext(ctx), gs.br.ProbePending(time.Now()))
	if aerr != nil {
		p.health.Add("loadctl.shed", 1)
		return nil, fmt.Errorf("proxy: group %s: %w", adv.GID, aerr)
	}
	start := time.Now()
	out, err := p.invokeVia(ctx, adv, gs, pol, req)
	var appErr *ApplicationError
	failed := err != nil && !errors.As(err, &appErr)
	release(time.Since(start), failed)
	return out, err
}

// invokeVia drives the admitted request through the group: bind to the
// policy's target, call it, settle what the outcome says about target
// and group, and re-bind until an authoritative answer arrives or the
// attempts run out.
func (p *SWSProxy) invokeVia(ctx context.Context, adv *bpeer.SemanticAdvertisement, gs *groupState, pol *replicaPolicy, req []byte) ([]byte, error) {
	var lastErr error = ErrNoCoordinator
	// rebind flips after any failed attempt so subsequent binding
	// lookups are recorded as "re-bind" — the failover cost the paper's
	// §5 worst case attributes to proxy re-binding.
	rebind := false
	for attempt := 0; attempt < p.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("proxy: invoke: %w", err)
		}
		if !gs.br.allow(time.Now()) {
			// The group's breaker is open: shed the call instead of
			// burning attempts against a dead group, so Invoke can
			// fall through to the next semantically matching group.
			p.health.Add("breaker.rejected", 1)
			return nil, fmt.Errorf("proxy: group %s: %w", adv.GID, ErrCircuitOpen)
		}
		t, err := p.bind(ctx, adv, gs, pol, rebind)
		if err != nil {
			lastErr = err
			gs.br.settle(false)
			p.sleep(ctx, attempt)
			continue
		}
		start := time.Now()
		out, resp, err := p.attempt(ctx, pol, t, req)
		if out != outRedirect {
			// A redirect says nothing about how the target serves.
			p.tracker.Observe(t.addr, time.Since(start), out == outOK)
		}
		t.br.settle(out.healthy())
		gs.br.settle(out.healthy())
		switch out {
		case outOK:
			if pol.read {
				p.observeRead(t.addr, resp.ReadIndex, resp.ReadSeq)
			}
			return resp.Payload, nil
		case outAppError:
			return nil, &ApplicationError{Group: adv.GID, Msg: resp.Error}
		}
		rebind = true
		lastErr = err
		p.mu.Lock()
		if gs.coord == t {
			gs.coord = nil // only if the binding is still the one that failed
		}
		if out != outInfraWait {
			// The target is broken or wrong: it leaves the replica set.
			// (While the group is electing, who coordinates is no longer
			// known, but a replica that answered keeps its place.)
			gs.evict(t)
			if out == outRedirect && gs.coord == nil && resp.Coordinator != "" {
				// The member named the real coordinator: look there first.
				p.bindCoordinator(gs, &target{addr: resp.Coordinator})
			}
		}
		p.mu.Unlock()
		if out == outInfraWait {
			p.sleep(ctx, attempt)
		}
	}
	return nil, lastErr
}

// bind returns the attempt's target inside a "bind" span ("re-bind"
// once a failure has invalidated an earlier target): the policy's pick
// among the targets already known, resolving them from the rendezvous
// and the members first when none is.
func (p *SWSProxy) bind(ctx context.Context, adv *bpeer.SemanticAdvertisement, gs *groupState, pol *replicaPolicy, rebind bool) (*target, error) {
	name := "bind"
	if rebind {
		name = "re-bind"
	}
	bctx, span := p.cfg.Tracer.StartSpan(ctx, name)
	t, err := pol.pick(p, gs, adv)
	if t == nil && err == nil {
		rctx, cancel := context.WithTimeout(bctx, p.cfg.BindTimeout)
		if pol.read {
			err = p.resolveReplicas(rctx, adv.GID, gs)
		} else {
			err = p.resolveCoordinator(rctx, adv.GID, gs)
		}
		cancel()
		if err == nil {
			t, err = pol.pick(p, gs, adv)
		}
		if t == nil && err == nil {
			// A concurrent failure evicted what was just resolved.
			err = ErrNoCoordinator
		}
	}
	if t != nil {
		span.SetAttr(pol.role, t.addr)
	}
	span.EndWith(err)
	return t, err
}

// attempt is one pipe round trip to the target inside a "call" span
// (which continues into the b-peer's own spans). The returned error
// describes every outcome the loop retries.
func (p *SWSProxy) attempt(ctx context.Context, pol *replicaPolicy, t *target, req []byte) (outcome, bpeer.Response, error) {
	cctx, span := p.cfg.Tracer.StartSpan(ctx, "call")
	span.SetAttr(pol.role, t.addr)
	p.health.Add("calls.attempted", 1)
	if pol.read {
		span.SetAttr("read", "balanced")
		p.health.Add("reads.balanced", 1)
	}
	callCtx, cancel := context.WithTimeout(cctx, p.cfg.CallTimeout)
	raw, err := p.pipes.Call(callCtx, t.pipe, req)
	cancel()
	var resp bpeer.Response
	if err == nil {
		resp, err = bpeer.DecodeResponseFull(raw)
	}
	out := classify(err, resp, pol.read)
	if err != nil {
		// Timeout, transport failure or a corrupted reply: the target
		// is likely dead or behind a bad link.
		span.EndWith(err)
		return out, resp, fmt.Errorf("proxy: call %s %s: %w", pol.role, t.addr, err)
	}
	span.SetAttr("status", resp.Status)
	span.End()
	switch {
	case out == outRedirect:
		err = fmt.Errorf("proxy: %s %s redirected to %q", pol.role, t.addr, resp.Coordinator)
	case resp.Status == "error":
		err = fmt.Errorf("proxy: %s %s: %s", pol.role, t.addr, resp.Error)
	case out != outOK:
		err = fmt.Errorf("proxy: %s %s: unknown response status %q", pol.role, t.addr, resp.Status)
	}
	return out, resp, err
}

// observeRead feeds one follower-served read into the health counters
// and the configured ReadObserver (the chaos staleness invariant).
func (p *SWSProxy) observeRead(replica string, readIndex, readSeq uint64) {
	p.health.Add("reads.served", 1)
	if readSeq < readIndex {
		p.health.Add("reads.stale", 1)
	}
	if p.cfg.ReadObserver != nil {
		p.cfg.ReadObserver(replica, readIndex, readSeq)
	}
}

// sleep pauses between attempts with capped exponential backoff plus
// jitter, never sleeping past the caller's context deadline. The pause
// exists to let a Bully election converge, so it is recorded as an
// "election-wait" span — in the §5 RTT anatomy this is the election
// share of the worst case (re-binding work is under "re-bind").
func (p *SWSProxy) sleep(ctx context.Context, attempt int) {
	if ctx.Err() != nil {
		return
	}
	delay := p.backoffDelay(attempt)
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining < delay {
			delay = remaining
		}
	}
	if delay <= 0 {
		return
	}
	p.health.Add("backoff.sleeps", 1)
	_, span := p.cfg.Tracer.StartSpan(ctx, "election-wait")
	span.SetAttr("delay", delay.String())
	defer span.End()
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// backoffDelay computes the attempt's pause: RetryDelay doubled per
// attempt, capped at RetryMaxDelay, with jitter drawn uniformly from
// the upper half of the window so concurrent retries decorrelate.
func (p *SWSProxy) backoffDelay(attempt int) time.Duration {
	if attempt > 16 {
		attempt = 16 // avoid shift overflow; the cap dominates anyway
	}
	d := p.cfg.RetryDelay << uint(attempt)
	if d <= 0 || d > p.cfg.RetryMaxDelay {
		d = p.cfg.RetryMaxDelay
	}
	half := d / 2
	p.mu.Lock()
	jitter := time.Duration(p.rng.Int63n(int64(half) + 1))
	p.mu.Unlock()
	return half + jitter
}
