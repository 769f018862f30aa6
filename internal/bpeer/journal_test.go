package bpeer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/p2p"
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

func TestQueryJournalReportsState(t *testing.T) {
	var execs atomic.Int64
	d := newDeploymentWithHandler(t, 1, countingHandler(&execs))
	coord := coordOf(t, d)
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "key-1", []byte("<p/>")); st != statusOK {
		t.Fatalf("call: %s %s", st, em)
	}
	port, err := d.net.NewPort("journal-query-client")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	client := p2p.NewPeer("journal-query-client", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	r := p2p.NewResolverOn(client, ProtoBinding)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	report, err := QueryJournal(ctx, r, coord.Addr())
	if err != nil {
		t.Fatalf("QueryJournal: %v", err)
	}
	for _, want := range []string{"highest_committed=1", "key=key-1", "status=committed"} {
		if !strings.Contains(report, want) {
			t.Errorf("journal report missing %q:\n%s", want, report)
		}
	}
}
