package bpeer

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"whisper/internal/p2p"
	"whisper/internal/replog"
	"whisper/internal/trace"
	"whisper/internal/wire"
)

// Journal resolver handlers (registered on ProtoBinding alongside the
// coordinator/pipe handlers).
const (
	// replogPipeHandler answers this replica's journal-replication pipe
	// location ("addr pipeID").
	replogPipeHandler = "bpeer.replog.pipe"
	// replogStateHandler answers the full encoded journal for state
	// transfer (election catch-up, post-restart rejoin). The request
	// announces the requester (stateRequest), and the answering member
	// admits it to its group before taking the snapshot.
	replogStateHandler = "bpeer.replog.state"
	// replogResolveHandler resolves a pending entry at its origin: the
	// origin atomically aborts a still-Prepared claim and reports the
	// final status (with the cached reply when executed).
	replogResolveHandler = "bpeer.replog.resolve"
	// replogStatusHandler answers a human-readable journal summary for
	// operator tooling (peerctl journal).
	replogStatusHandler = "bpeer.replog.status"
)

// ErrMsgOutcomeUnknown is returned when a keyed operation's outcome
// cannot be determined (coordinator crashed mid-execution, or the
// preparing origin is unreachable). It is a retryable infrastructure
// error: the client keeps its idempotency key and retries, and the
// journal guarantees the operation never runs twice.
const ErrMsgOutcomeUnknown = "operation outcome unknown"

// replKind is the kind of a replicated journal message.
type replKind byte

const (
	replKindPrepare replKind = iota + 1
	replKindCommit
	replKindAbort
)

func (k replKind) String() string {
	switch k {
	case replKindPrepare:
		return "prepare"
	case replKindCommit:
		return "commit"
	default:
		return "abort"
	}
}

// replMsg is the replication-pipe payload carrying one journal entry.
// Wire form (layout: DESIGN.md §5): the kind as a uvarint, then the
// entry (replog.AppendEntry).
type replMsg struct {
	Kind  replKind
	Entry replog.Entry
}

func (m *replMsg) encode() []byte {
	out := make([]byte, 0, 1+replog.EntrySize(&m.Entry))
	return replog.AppendEntry(wire.AppendUvarint(out, uint64(m.Kind)), &m.Entry)
}

func decodeReplMsg(data []byte) (replMsg, error) {
	r := wire.NewReader(data)
	m := replMsg{Kind: replKind(r.Uvarint())}
	if m.Kind < replKindPrepare || m.Kind > replKindAbort {
		r.Fail()
	}
	m.Entry = replog.ReadEntry(&r)
	return m, r.Done()
}

// stateRequest is the replogStateHandler query payload: who is asking
// and where its replication pipe is bound. Wire form: name, address,
// rank as a zigzag varint, pipe ID.
type stateRequest struct {
	Name string
	Addr string
	Rank int64
	Pipe p2p.ID
}

func (q *stateRequest) encode() []byte {
	out := wire.AppendString(wire.AppendString(nil, q.Name), q.Addr)
	return wire.AppendString(wire.AppendVarint(out, q.Rank), string(q.Pipe))
}

func decodeStateRequest(data []byte) (stateRequest, error) {
	r := wire.NewReader(data)
	q := stateRequest{Name: r.Str(), Addr: r.Str(), Rank: r.Varint(), Pipe: p2p.ID(r.Str())}
	return q, r.Done()
}

// resolveAnswer is the reply to a replogResolveHandler query. Wire
// form: status, application error, reply (empty unless executed).
type resolveAnswer struct {
	Status replog.Status
	AppErr string
	Reply  []byte
}

func (a *resolveAnswer) encode() []byte {
	out := wire.AppendString(wire.AppendUvarint(nil, uint64(a.Status)), a.AppErr)
	return wire.AppendBytes(out, a.Reply)
}

func decodeResolveAnswer(data []byte) (resolveAnswer, error) {
	r := wire.NewReader(data)
	a := resolveAnswer{Status: replog.ReadStatus(&r), AppErr: r.Str(), Reply: replog.ReadReply(&r)}
	return a, r.Done()
}

// Journal returns the replica's operation journal (nil when journaling
// is disabled via NoJournal or LoadSharing).
func (b *BPeer) Journal() *replog.Journal { return b.journal }

// --- follower apply loop ------------------------------------------------

// replogLoop applies replicated journal entries arriving on the
// dedicated replication pipe and acks each one (the coordinator's
// CallAll fan-out waits for these acks before answering the client).
func (b *BPeer) replogLoop() {
	defer close(b.replogDone)
	for {
		select {
		case pm := <-b.replogIn.Messages():
			b.applyReplicated(pm)
		case <-b.replogIn.Done():
			return
		}
	}
}

func (b *BPeer) applyReplicated(pm p2p.PipeMessage) {
	span := b.cfg.Tracer.StartRemote(pm.Trace, "replog.apply")
	span.SetAttr("peer", b.cfg.Name)
	msg, err := decodeReplMsg(pm.Payload)
	if err != nil {
		span.EndWith(err)
		return
	}
	span.SetAttr("kind", msg.Kind.String())
	span.SetAttr("key", msg.Entry.Key)
	switch msg.Kind {
	case replKindPrepare:
		b.journal.ApplyPrepare(msg.Entry)
	case replKindCommit:
		b.journal.ApplyCommit(msg.Entry)
	case replKindAbort:
		b.journal.ApplyAbort(msg.Entry)
	}
	span.End()
	_ = b.replogIn.Reply(pm, []byte(statusOK))
}

// --- coordinator replication --------------------------------------------

// replicate fans one journal entry out to every live follower in the
// group and waits for their acks (bounded by ctx). A follower that
// misses one becomes a suspect and is skipped until it is heard from —
// safe because the entry is already durable in the coordinator's own
// journal, entries travel whole (a COMMIT carries the reply, not a
// reference to its PREPARE), and a replica that wins an election or
// restarts state-transfers before it serves. The only messages sent are
// the entry and its acks.
//
//lint:hotpath
func (b *BPeer) replicate(ctx context.Context, kind replKind, key string) {
	entry, ok := b.journal.Entry(key)
	if !ok {
		return
	}
	ctx, span := b.cfg.Tracer.StartSpan(ctx, "replog.replicate")
	span.SetAttr("kind", kind.String())
	span.SetAttr("key", key)
	defer span.End()

	//lint:allow allocbudget a member's pipe is looked up once, then cached in the group
	advs := b.replogPipes(ctx, b.group.current())
	span.SetAttr("followers", strconv.Itoa(len(advs)))
	if len(advs) == 0 {
		return
	}
	msg := replMsg{Kind: kind, Entry: entry}
	//lint:allow allocbudget one headers map per follower escapes into the wire message; it is the protocol cost of the send
	for _, r := range b.pipes.CallAll(ctx, advs, msg.encode()) {
		if r.Err != nil {
			// The follower is likely down (or restarted under a fresh
			// pipe ID).
			b.group.Silent(r.Addr)
			b.journal.Counters().Add("replicate.miss", 1)
		}
	}
}

// replogPipes returns the replication pipes of the live members other
// than self (members[0]). A member whose pipe is not known yet is asked
// for it once; one that does not answer is a suspect.
func (b *BPeer) replogPipes(ctx context.Context, members []member) []*p2p.PipeAdvertisement {
	advs := make([]*p2p.PipeAdvertisement, 0, len(members))
	for _, m := range members[1:] {
		if m.suspect {
			continue
		}
		if m.replog == nil {
			if m.replog = b.queryReplogPipe(ctx, m.addr); m.replog == nil {
				b.group.Silent(m.addr)
				continue
			}
			b.group.admit(m) // its answer is word from the member itself
		}
		advs = append(advs, m.replog)
	}
	return advs
}

// queryReplogPipe asks a member where its replication pipe is bound;
// nil when it does not answer.
func (b *BPeer) queryReplogPipe(ctx context.Context, addr string) *p2p.PipeAdvertisement {
	payload, err := b.bind.Query(ctx, addr, replogPipeHandler, nil)
	if err != nil {
		return nil
	}
	fields := strings.Fields(string(payload))
	if len(fields) != 2 {
		return nil
	}
	return replogPipeAdv(fields[0], p2p.ID(fields[1]))
}

// replogPipeAdv builds the advertisement of a member's replication pipe.
func replogPipeAdv(addr string, pipeID p2p.ID) *p2p.PipeAdvertisement {
	return &p2p.PipeAdvertisement{PipeID: pipeID, Kind: p2p.PropagatePipe, Addr: addr}
}

// --- journaled request serving ------------------------------------------

// journaledResponse serves one keyed request through the journal: claim
// the key (dedup), replicate the claim, execute exactly once, replicate
// the outcome. The caller sends the response and ends the request span;
// failingOver asks it to fail-stop the replica after replying.
func (b *BPeer) journaledResponse(span *trace.Span, req peerRequest) (resp peerResponse, failingOver bool) {
	resp = peerResponse{Status: statusError}
	ctx, cancel := context.WithTimeout(trace.ContextWith(b.lifecycleCtx(), span), handlerTimeout)
	defer cancel()

	digest := replog.Digest(req.Payload)
	res := b.journal.Begin(req.Key, req.Op, digest)
	if res.Decision == replog.BeginPending {
		res = b.resolvePending(ctx, req, res)
	}
	switch res.Decision {
	case replog.BeginCached:
		span.SetAttr("replog", "cached")
		if res.AppErr != "" {
			resp.Error = res.AppErr
		} else {
			resp.Status = statusOK
			resp.Payload = res.Reply
		}
		return resp, false
	case replog.BeginConflict:
		resp.Error = fmt.Sprintf("idempotency key %s reused with a different payload", req.Key)
		return resp, false
	case replog.BeginPoisoned:
		span.SetAttr("replog", "poisoned")
		resp.Error = ErrMsgOutcomeUnknown
		return resp, false
	case replog.BeginNew:
		// fall through to execution
	}

	// Replicate the PREPARE before executing, so a successor learns the
	// claim even if we die mid-execution (and must then resolve it with
	// us — or poison it — before the key can run anywhere).
	replCtx, replCancel := context.WithTimeout(ctx, b.cfg.HeartbeatTimeout)
	b.replicate(replCtx, replKindPrepare, req.Key)
	replCancel()

	if err := b.journal.MarkExecuting(req.Key); err != nil {
		// Lost ownership between Begin and here (a resolver abort from
		// a deposed-coordinator race): never execute.
		resp.Error = ErrMsgOutcomeUnknown
		return resp, false
	}

	out, outcome, err := b.execute(ctx, req)
	appErr := ""
	switch outcome {
	case execFailStop:
		// The fail-stop contract means the backend operation did
		// not execute: abort the claim (locally and on the
		// followers) so a surviving replica can re-own the key,
		// then take this replica offline.
		_ = b.journal.MarkAborted(req.Key)
		abortCtx, abortCancel := context.WithTimeout(b.lifecycleCtx(), b.cfg.HeartbeatTimeout)
		b.replicate(abortCtx, replKindAbort, req.Key)
		abortCancel()
		resp.Error = ErrMsgFailingOver
		return resp, true
	case execInterrupted:
		// The outcome is unknown. Leave the entry Executing — the
		// post-restart revisit poisons it — and answer retryably
		// without caching anything.
		resp.Error = ErrMsgOutcomeUnknown
		return resp, false
	case execAppError:
		// A deterministic application error is an outcome: journal it
		// so every retry replays the same rejection instead of
		// re-executing.
		appErr = err.Error()
	}
	if mErr := b.journal.MarkExecuted(req.Key, out, appErr); mErr != nil {
		resp.Error = ErrMsgOutcomeUnknown
		return resp, false
	}
	b.commitAndReplicate(ctx, req.Key)
	resp.Error = appErr
	if appErr == "" {
		resp.Status = statusOK
		resp.Payload = out
	}
	return resp, false
}

// commitAndReplicate replicates the COMMIT (with the cached reply) to
// the followers and finalises the local entry. The fan-out is bounded
// but runs before the client ack: a retry hitting a failed-over
// follower finds the cached reply there.
func (b *BPeer) commitAndReplicate(ctx context.Context, key string) {
	if err := b.journal.MarkCommitted(key); err != nil {
		return
	}
	replCtx, cancel := context.WithTimeout(ctx, b.cfg.HeartbeatTimeout)
	defer cancel()
	b.replicate(replCtx, replKindCommit, key)
}

// resolvePending resolves a key prepared by another coordinator: ask
// the origin (which atomically aborts its claim if it never started
// executing). The origin's durable journal survives its crash, so an
// unreachable origin keeps the key retryably unknown until it rejoins.
func (b *BPeer) resolvePending(ctx context.Context, req peerRequest, pending replog.BeginResult) replog.BeginResult {
	ctx, span := b.cfg.Tracer.StartSpan(ctx, "replog.resolve")
	span.SetAttr("key", req.Key)
	span.SetAttr("origin", pending.Origin)
	defer span.End()

	// The origin may have restarted on a fresh transport: where the
	// group knows it now beats the address stored in the entry.
	addr := b.group.addrOf(pending.Origin)
	if addr == "" {
		addr = pending.OriginAddr
	}
	if addr == "" || addr == b.peer.Addr() {
		// The origin is gone from the group view (or is ourselves with
		// a stale entry): we cannot prove the outcome.
		span.SetAttr("result", "unreachable")
		return replog.BeginResult{Decision: replog.BeginPoisoned, Seq: pending.Seq}
	}
	rctx, cancel := context.WithTimeout(ctx, b.cfg.HeartbeatTimeout)
	payload, err := b.bind.Query(rctx, addr, replogResolveHandler, []byte(req.Key))
	cancel()
	if err != nil {
		// Origin unreachable: do NOT poison — it may rejoin with its
		// durable journal and prove the outcome. Retryable for now.
		span.SetAttr("result", "query-failed")
		return replog.BeginResult{Decision: replog.BeginPoisoned, Seq: pending.Seq}
	}
	ans, err := decodeResolveAnswer(payload)
	if err != nil {
		span.SetAttr("result", "bad-answer")
		return replog.BeginResult{Decision: replog.BeginPoisoned, Seq: pending.Seq}
	}
	switch ans.Status {
	case replog.StatusExecuted, replog.StatusCommitted:
		span.SetAttr("result", "adopted")
		b.journal.AdoptReply(req.Key, ans.Reply, ans.AppErr)
		return replog.BeginResult{Decision: replog.BeginCached, Seq: pending.Seq, Reply: ans.Reply, AppErr: ans.AppErr}
	case replog.StatusAborted:
		// The origin provably never executed it: take ownership.
		span.SetAttr("result", "reowned")
		if err := b.journal.Reown(req.Key); err != nil {
			return replog.BeginResult{Decision: replog.BeginPoisoned, Seq: pending.Seq}
		}
		return replog.BeginResult{Decision: replog.BeginNew, Seq: pending.Seq}
	default:
		// Executing or poisoned at the origin: permanently unknown.
		span.SetAttr("result", "poisoned")
		b.journal.MarkPoisoned(req.Key)
		return replog.BeginResult{Decision: replog.BeginPoisoned, Seq: pending.Seq}
	}
}

// --- catch-up / state transfer ------------------------------------------

// journalBarrier is the election catch-up barrier: before a freshly
// elected coordinator announces itself, it state-transfers the journal
// from the surviving members so it knows every committed reply and
// every pending claim. Best-effort by design — unreachable members are
// crash-stopped and re-merge their durable journals when they rejoin —
// so it never fails the election.
func (b *BPeer) journalBarrier() error {
	if b.journal == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(b.lifecycleCtx(), b.cfg.HeartbeatTimeout)
	defer cancel()
	b.journalCatchUp(ctx)
	return nil
}

// journalCatchUp merges the journal state of every reachable group
// member into the local journal — every member not known to have left
// is asked, a suspect included: a coordinator that was only cut off may
// hold the newest entries. The request announces this replica, which
// puts it in each answering member's replication set from the snapshot
// it receives onward.
func (b *BPeer) journalCatchUp(ctx context.Context) {
	ctx, span := b.cfg.Tracer.StartSpan(ctx, "replog.catchup")
	span.SetAttr("peer", b.cfg.Name)
	defer span.End()

	self := b.peer.Addr()
	var targets []string
	for _, m := range b.group.current()[1:] {
		targets = append(targets, m.addr)
	}
	if len(targets) == 0 {
		span.SetAttr("result", "alone")
		return
	}
	announce := stateRequest{
		Name: b.cfg.Name,
		Addr: self,
		Rank: b.cfg.Rank,
		Pipe: b.replogIn.Advertisement().PipeID,
	}
	merged := 0
	err := b.bind.Propagate(ctx, targets, replogStateHandler, announce.encode(), func(resp p2p.Response) bool {
		if resp.Err == nil && resp.Payload != nil {
			if n, err := b.journal.MergeState(resp.Payload); err == nil {
				merged += n
			}
		}
		return false
	})
	if err != nil {
		if ctx.Err() == nil {
			span.SetAttr("result", "propagate-failed")
			return
		}
		span.SetAttr("result", "timeout")
	}
	span.SetAttr("merged", strconv.Itoa(merged))
}

// --- resolver handlers ---------------------------------------------------

// answerReplogPipe serves this replica's replication-pipe location.
func (b *BPeer) answerReplogPipe(_ string, _ []byte) ([]byte, error) {
	if b.journal == nil {
		return nil, fmt.Errorf("journal disabled")
	}
	return []byte(b.peer.Addr() + " " + string(b.replogIn.Advertisement().PipeID)), nil
}

// answerReplogState serves the encoded journal for state transfer. The
// requester joins this replica's group BEFORE the snapshot is taken: an
// entry journaled earlier is in the snapshot, one journaled later is
// replicated to the requester, so it never has a gap.
func (b *BPeer) answerReplogState(_ string, payload []byte) ([]byte, error) {
	if b.journal == nil {
		return nil, fmt.Errorf("journal disabled")
	}
	if req, err := decodeStateRequest(payload); err == nil && req.Addr != "" && req.Pipe != "" {
		b.group.admit(member{
			name:   req.Name,
			addr:   req.Addr,
			rank:   req.Rank,
			replog: replogPipeAdv(req.Addr, req.Pipe),
		})
	}
	return b.journal.EncodeState()
}

// answerReplogResolve resolves one key for a successor coordinator,
// atomically aborting a still-Prepared local claim.
func (b *BPeer) answerReplogResolve(_ string, payload []byte) ([]byte, error) {
	if b.journal == nil {
		return nil, fmt.Errorf("journal disabled")
	}
	key := string(payload)
	st := b.journal.Resolve(key)
	ans := resolveAnswer{Status: st}
	if st == replog.StatusExecuted || st == replog.StatusCommitted {
		if reply, appErr, ok := b.journal.CachedReply(key); ok {
			ans.Reply = reply
			ans.AppErr = appErr
		}
	}
	return ans.encode(), nil
}

// answerReplogStatus serves a human-readable journal summary.
func (b *BPeer) answerReplogStatus(_ string, _ []byte) ([]byte, error) {
	if b.journal == nil {
		return nil, fmt.Errorf("journal disabled")
	}
	st := b.journal.Stats()
	var sb strings.Builder
	fmt.Fprintf(&sb, "peer=%s coordinator=%v next_seq=%d highest_committed=%d live=%d snapshotted=%d snapshot_up_to=%d\n",
		b.cfg.Name, b.IsCoordinator(), st.NextSeq, st.HighestCommitted, st.Live, st.Snapshotted, st.SnapshotUpTo)
	refused, timedOut := b.fd.Silences()
	fmt.Fprintf(&sb, "%s detect.refused=%d detect.timeout=%d replicate.miss=%d\n",
		b.group.status(), refused, timedOut, b.journal.Counters().Get("replicate.miss"))
	for status, n := range st.ByStatus {
		fmt.Fprintf(&sb, "status %s: %d\n", status, n)
	}
	for _, line := range b.journal.StatusLines() {
		sb.WriteString(line)
		sb.WriteString("\n")
	}
	return []byte(sb.String()), nil
}

// QueryJournal asks a replica for its journal summary (the peerctl
// "journal" subcommand).
func QueryJournal(ctx context.Context, r *p2p.Resolver, memberAddr string) (string, error) {
	payload, err := r.Query(ctx, memberAddr, replogStatusHandler, nil)
	if err != nil {
		return "", err
	}
	return string(payload), nil
}
