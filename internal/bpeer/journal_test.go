package bpeer

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/replog"
)

// countingHandler counts executions per payload and returns an echo.
func countingHandler(execs *atomic.Int64) func(name string) Handler {
	return func(name string) Handler {
		return HandlerFunc(func(_ context.Context, op string, payload []byte) ([]byte, error) {
			execs.Add(1)
			return []byte(name + ":" + op + ":" + string(payload)), nil
		})
	}
}

// keyedCall sends one keyed request and returns the decoded response
// without asserting success.
func (d *deployment) keyedCall(t *testing.T, pipe *p2p.PipeAdvertisement, op, key string, payload []byte) (status, errMsg string, out []byte) {
	t.Helper()
	port, err := d.net.NewPort(fmt.Sprintf("client-%s-%s-%d", op, key, time.Now().UnixNano()))
	if err != nil {
		t.Fatalf("client port: %v", err)
	}
	client := p2p.NewPeer("client", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	pipes := p2p.NewPipeService(client, d.gen)

	req, err := EncodeRequest(op, payload, key)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := pipes.Call(ctx, pipe, req)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	r, err := DecodeResponseFull(resp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return r.Status, r.Error, r.Payload
}

// coordOf waits until the live peers agree on a running coordinator
// (excluding any addresses in not, e.g. a just-crashed one) and returns it.
func coordOf(t *testing.T, d *deployment, not ...string) *BPeer {
	t.Helper()
	live := make([]*BPeer, 0, len(d.peers))
	for _, p := range d.peers {
		if p.Running() {
			live = append(live, p)
		}
	}
	excluded := func(addr string) bool {
		for _, n := range not {
			if addr == n {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		addr := live[0].Coordinator()
		agreed := addr != "" && !excluded(addr)
		for _, p := range live[1:] {
			if p.Coordinator() != addr {
				agreed = false
				break
			}
		}
		if agreed {
			for _, p := range live {
				if p.Addr() == addr {
					return p
				}
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("live peers never agreed on a (new) coordinator")
	return nil
}

func TestJournalDedupesRetriedKey(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 3, countingHandler(&execs))
	coord := coordOf(t, d)
	pipe := coord.ServicePipe()

	st, em, out := d.keyedCall(t, pipe, "Op", "key-1", []byte("<p/>"))
	if st != statusOK {
		t.Fatalf("first call: %s %s", st, em)
	}
	// The same key retried: served from the journal cache, the handler
	// runs exactly once.
	st2, em2, out2 := d.keyedCall(t, pipe, "Op", "key-1", []byte("<p/>"))
	if st2 != statusOK {
		t.Fatalf("retry: %s %s", st2, em2)
	}
	if string(out) != string(out2) {
		t.Fatalf("cached reply %q != original %q", out2, out)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", n)
	}
	// A different key executes independently.
	if st, em, _ := d.keyedCall(t, pipe, "Op", "key-2", []byte("<p/>")); st != statusOK {
		t.Fatalf("second key: %s %s", st, em)
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("handler executed %d times, want 2", n)
	}
}

// TestGoingDownReplicaExecutesNothing: once Crash or Close has
// cancelled a coordinator's lifecycle, a keyed request it is still
// serving is aborted before it executes — its PREPARE may have reached
// nobody, so a successor would run the key again — and answered
// retryably, so the retry runs it elsewhere.
func TestGoingDownReplicaExecutesNothing(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)
	coord.runCancel() // the first thing Crash and Close do

	resp, failingOver := coord.journaledResponse(nil, peerRequest{Op: "Op", Key: "key-1", Payload: []byte("<p/>")})
	if n := execs.Load(); n != 0 {
		t.Fatalf("handler executed %d times on a replica going down, want 0", n)
	}
	if resp.Error != ErrMsgFailingOver || failingOver {
		t.Errorf("answer %+v (fail-stop %v), want a retryable %q", resp, failingOver, ErrMsgFailingOver)
	}
	if e, ok := coord.Journal().Entry("key-1"); !ok || e.Status != replog.StatusAborted {
		t.Errorf("journal entry %+v (found %v), want the claim aborted", e, ok)
	}
}

func TestJournalKeyReuseWithDifferentPayloadRejected(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)
	pipe := coord.ServicePipe()

	if st, em, _ := d.keyedCall(t, pipe, "Op", "key-1", []byte("<a/>")); st != statusOK {
		t.Fatalf("first call: %s %s", st, em)
	}
	st, em, _ := d.keyedCall(t, pipe, "Op", "key-1", []byte("<b/>"))
	if st != statusError {
		t.Fatalf("conflicting payload: status=%s, want error", st)
	}
	if em == ErrMsgOutcomeUnknown || em == ErrMsgNoCoordinator {
		t.Fatalf("conflict produced infrastructure error %q, want application error", em)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want 1", n)
	}
}

func TestJournalReplicatesReplyToSurvivors(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 3, countingHandler(&execs))
	coord := coordOf(t, d)
	pipe := coord.ServicePipe()

	st, em, out := d.keyedCall(t, pipe, "Op", "key-1", []byte("<p/>"))
	if st != statusOK {
		t.Fatalf("first call: %s %s", st, em)
	}
	// Kill the coordinator that executed the operation. The COMMIT was
	// replicated before the ack, so the new coordinator must answer the
	// retry from its copy of the journal — zero re-executions.
	if err := coord.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	next := coordOf(t, d, coord.Addr())
	st2, em2, out2 := d.keyedCall(t, next.ServicePipe(), "Op", "key-1", []byte("<p/>"))
	if st2 != statusOK {
		t.Fatalf("retry after failover: %s %s", st2, em2)
	}
	if string(out2) != string(out) {
		t.Fatalf("failover reply %q != original %q (cached reply must survive the coordinator)", out2, out)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times across failover, want exactly 1", n)
	}
}

func TestJournalSurvivesCrashRestart(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)

	st, em, out := d.keyedCall(t, coord.ServicePipe(), "Op", "key-1", []byte("<p/>"))
	if st != statusOK {
		t.Fatalf("first call: %s %s", st, em)
	}
	if err := coord.Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	port, err := d.net.NewPort(coord.Name())
	if err != nil {
		t.Fatalf("restart port: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := coord.Restart(ctx, port); err != nil {
		t.Fatalf("restart: %v", err)
	}
	back := coordOf(t, d)
	// The journal models a disk log: it survives the crash, so the
	// retry is a cache hit even with every other replica gone.
	st2, em2, out2 := d.keyedCall(t, back.ServicePipe(), "Op", "key-1", []byte("<p/>"))
	if st2 != statusOK {
		t.Fatalf("retry after restart: %s %s", st2, em2)
	}
	if string(out2) != string(out) {
		t.Fatalf("post-restart reply %q != original %q", out2, out)
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times across restart, want exactly 1", n)
	}
}

func TestJournalCachesApplicationErrors(t *testing.T) {
	var execs atomic.Int64
	reject := errors.New("insufficient funds")
	d := newDeploymentWithHandler(t, 1, func(name string) Handler {
		return HandlerFunc(func(_ context.Context, op string, payload []byte) ([]byte, error) {
			execs.Add(1)
			return nil, reject
		})
	})
	coord := coordOf(t, d)
	for i := 0; i < 2; i++ {
		st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "key-1", []byte("<p/>"))
		if st != statusError || em != reject.Error() {
			t.Fatalf("call %d: %s %q, want cached application error", i, st, em)
		}
	}
	if n := execs.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want 1 (the rejection replays from the journal)", n)
	}
}

// TestCompactingCommitReachesFollowers: the write whose commit folds the
// coordinator's live entries into its snapshot still replicates its
// COMMIT. Every follower answers every key from its own cache, so a
// retry after failover never meets a PREPARE stranded at an origin that
// may be down.
func TestCompactingCommitReachesFollowers(t *testing.T) {
	d, coord := formGroup(t, 3)
	for _, p := range d.peers {
		p.Journal().SetCompactionThreshold(4)
	}
	const writes = 10
	for i := 0; i < writes; i++ {
		d.mustWrite(t, coord, fmt.Sprintf("k%d", i))
	}
	if coord.Journal().Counters().Get("compact") == 0 {
		t.Fatal("the coordinator never compacted; the test does not reach the compacting commit")
	}
	for _, p := range d.peers {
		if p == coord {
			continue
		}
		for i := 0; i < writes; i++ {
			key := fmt.Sprintf("k%d", i)
			if _, _, ok := p.Journal().CachedReply(key); !ok {
				e, live := p.Journal().Entry(key)
				t.Errorf("%s: no cached reply for %s (live entry %+v, present=%v)", p.Name(), key, e, live)
			}
		}
	}
}

func TestUnkeyedRequestBypassesJournal(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)
	// Legacy unkeyed requests keep their at-least-once semantics.
	for i := 0; i < 2; i++ {
		if st, _, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "", []byte("<p/>")); st != statusOK {
			t.Fatalf("call %d failed", i)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Fatalf("handler executed %d times, want 2 (no dedup without a key)", n)
	}
	if st := coord.Journal().Stats(); st.Live != 0 || st.Snapshotted != 0 {
		t.Fatalf("journal recorded unkeyed traffic: %+v", st)
	}
}

// TestMalformedStateRequestGetsNoState: a state query whose payload
// does not decode is refused. Answering it with the whole journal
// would ship every key's digest and reply in return for a garbage
// frame; every real requester sends a summary.
func TestMalformedStateRequestGetsNoState(t *testing.T) {
	d := newDeployment(t, 1)
	coord := coordOf(t, d)
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "key-1", []byte("<p/>")); st != statusOK {
		t.Fatalf("call: %s %s", st, em)
	}
	port, err := d.net.NewPort("state-client")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	client := p2p.NewPeer("state-client", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	state, err := p2p.NewResolverOn(client, ProtoBinding).Query(ctx, coord.Addr(), replogStateHandler, []byte("garbage"))
	if err == nil || len(state) != 0 {
		t.Fatalf("malformed state request answered with %d bytes, err %v; want an error and no state", len(state), err)
	}
}

// status asks the replica at addr for its status over the network and
// returns its b-peer section, raw and decoded.
func (d *deployment) status(t *testing.T, addr string) ([]byte, Status) {
	t.Helper()
	port, err := d.net.NewPort(fmt.Sprintf("status-client-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	client := p2p.NewPeer("status-client", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	answer, err := p2p.QueryStatus(ctx, p2p.NewResolverOn(client, p2p.ProtoStatus), addr)
	if err != nil {
		t.Fatalf("status of %s: %v", addr, err)
	}
	var st Status
	if err := json.Unmarshal(answer["bpeer"], &st); err != nil {
		t.Fatalf("decode b-peer section %s: %v", answer["bpeer"], err)
	}
	return answer["bpeer"], st
}

func TestStatusReportsJournalState(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "key-1", []byte("<p/>")); st != statusOK {
		t.Fatalf("call: %s %s", st, em)
	}
	_, st := d.status(t, coord.Addr())
	j := st.Journal
	if j == nil || j.HighestCommitted != 1 || j.NextSeq != 1 || j.ByStatus["committed"] != 1 {
		t.Fatalf("journal status = %+v, want one committed entry", j)
	}
	if e := j.Entries; len(e) != 1 || e[0].Seq != 1 || e[0].Key != "key-1" || e[0].Op != "Op" || e[0].Status != replog.StatusCommitted || e[0].Origin != coord.Name() {
		t.Fatalf("journal entries = %+v, want key-1 committed at seq 1", e)
	}
	if st.Name != coord.Name() || st.Coordinator != coord.Addr() || st.Term == 0 || st.Installed.IsZero() {
		t.Fatalf("group record = %+v, want %s following itself", st, coord.Name())
	}
}

// TestStatusListsJournalInSeqOrderAndIsStable: the journal's entries
// come in ascending numeric sequence order (seq 10 after seq 9, not
// after seq 1), and an idle replica answers the same bytes every time
// — nothing in the answer comes out of a map iteration.
func TestStatusListsJournalInSeqOrderAndIsStable(t *testing.T) {
	d := newDeployment(t, 1)
	coord := coordOf(t, d)
	for i := 1; i <= 11; i++ {
		d.mustWrite(t, coord, fmt.Sprintf("key-%d", i))
	}
	coord.Journal().Begin("pending", "Op", "digest") // a second status
	first, st := d.status(t, coord.Addr())
	if n := len(st.Journal.Entries); n != 12 {
		t.Fatalf("%d entries, want 12", n)
	}
	for i, e := range st.Journal.Entries {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d: entries out of sequence order", i, e.Seq)
		}
	}
	// A lease renewal between two answers is news (view.refresh and the
	// install time move); ask again until a pair saw none.
	for tries := 0; ; tries++ {
		again, next := d.status(t, coord.Addr())
		if next.View["view.refresh"] == st.View["view.refresh"] {
			if !bytes.Equal(first, again) {
				t.Fatalf("two answers from an idle replica differ:\n%s\n%s", first, again)
			}
			return
		}
		if tries == 5 {
			t.Fatal("a lease renewal landed between every pair of answers")
		}
		first, st = again, next
	}
}
