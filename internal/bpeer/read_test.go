package bpeer

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/replog"
)

// newReadDeployment deploys replicas with "Read" configured read-only.
func newReadDeployment(t *testing.T, replicas int) *deployment {
	t.Helper()
	d := newBareDeployment(t, nil)
	d.readOps = []string{"Read"}
	for i := 0; i < replicas; i++ {
		d.addPeer(t, i)
	}
	return d
}

// readCall sends one marked read to the given pipe and returns the
// fully decoded response.
func (d *deployment) readCall(t *testing.T, pipe *p2p.PipeAdvertisement, op string, timeout time.Duration) (Response, error) {
	t.Helper()
	port, err := d.net.NewPort(fmt.Sprintf("rclient-%d", time.Now().UnixNano()))
	if err != nil {
		t.Fatalf("client port: %v", err)
	}
	client := p2p.NewPeer("rclient", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	pipes := p2p.NewPipeService(client, d.gen)

	req, err := EncodeReadRequest(op, []byte("<q/>"))
	if err != nil {
		t.Fatalf("encode read: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	raw, err := pipes.Call(ctx, pipe, req)
	if err != nil {
		return Response{}, err
	}
	resp, err := DecodeResponseFull(raw)
	if err != nil {
		t.Fatalf("decode read response: %v", err)
	}
	return resp, nil
}

// follower returns a running non-coordinator replica.
func follower(t *testing.T, d *deployment, coord *BPeer) *BPeer {
	t.Helper()
	for _, p := range d.peers {
		if p.Running() && p.Addr() != coord.Addr() {
			return p
		}
	}
	t.Fatal("no running follower")
	return nil
}

// TestFollowerServesMarkedRead: a marked read sent to a follower is
// served locally (not redirected) and satisfies ReadSeq >= ReadIndex.
func TestFollowerServesMarkedRead(t *testing.T) {
	d := newReadDeployment(t, 3)
	coord := coordOf(t, d)

	// One committed write so the read index is non-zero.
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "w1", []byte("<p/>")); st != statusOK {
		t.Fatalf("write: %s %s", st, em)
	}

	f := follower(t, d, coord)
	resp, err := d.readCall(t, f.ServicePipe(), "Read", 2*time.Second)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if resp.Status != statusOK {
		t.Fatalf("read status %s (err %s), want ok", resp.Status, resp.Error)
	}
	if !strings.HasPrefix(string(resp.Payload), f.Name()+":") {
		t.Fatalf("read served by %q, want locally by follower %s", resp.Payload, f.Name())
	}
	if resp.ReadIndex < 1 {
		t.Fatalf("ReadIndex = %d, want >= 1 after a committed write", resp.ReadIndex)
	}
	if resp.ReadSeq < resp.ReadIndex {
		t.Fatalf("staleness violation: ReadSeq %d < ReadIndex %d", resp.ReadSeq, resp.ReadIndex)
	}

	// The same op WITHOUT the read mark still redirects to the
	// coordinator — marking is the client's opt-in.
	plain, err := func() (Response, error) {
		port, _ := d.net.NewPort("plainclient")
		client := p2p.NewPeer("plainclient", d.gen.New(p2p.PeerIDKind), port)
		client.Start()
		t.Cleanup(func() { _ = client.Close() })
		pipes := p2p.NewPipeService(client, d.gen)
		req, _ := EncodeRequest("Read", []byte("<q/>"), "")
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		raw, err := pipes.Call(ctx, f.ServicePipe(), req)
		if err != nil {
			return Response{}, err
		}
		return DecodeResponseFull(raw)
	}()
	if err != nil {
		t.Fatalf("plain call: %v", err)
	}
	if plain.Status != statusRedirect {
		t.Fatalf("unmarked request to follower: status %s, want redirect", plain.Status)
	}

	// A marked read for an op outside ReadOnlyOps is not served
	// locally either (defense against misconfigured clients).
	resp2, err := d.readCall(t, f.ServicePipe(), "Op", 2*time.Second)
	if err != nil {
		t.Fatalf("non-read-op read: %v", err)
	}
	if resp2.Status != statusRedirect {
		t.Fatalf("marked read for non-read op: status %s, want redirect", resp2.Status)
	}
}

// TestFollowerReadLagBlocks is the staleness regression: a follower
// whose apply loop lags the coordinator's committed prefix must BLOCK
// the read at the barrier — not serve stale — until the commit reaches
// it.
func TestFollowerReadLagBlocks(t *testing.T) {
	d := newReadDeployment(t, 2)
	coord := coordOf(t, d)
	f := follower(t, d, coord)

	// Seed one replicated commit so both journals sit at seq 1.
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "w1", []byte("<p/>")); st != statusOK {
		t.Fatalf("write: %s %s", st, em)
	}

	// Advance the coordinator's journal WITHOUT replication, simulating
	// a follower apply loop that has fallen behind.
	cj := coord.Journal()
	res := cj.Begin("w2", "Op", replog.Digest([]byte("<p2/>")))
	if res.Decision != replog.BeginNew {
		t.Fatalf("Begin(w2) = %v", res.Decision)
	}
	if err := cj.MarkExecuting("w2"); err != nil {
		t.Fatalf("MarkExecuting: %v", err)
	}
	if err := cj.MarkExecuted("w2", []byte("r2"), ""); err != nil {
		t.Fatalf("MarkExecuted: %v", err)
	}
	if err := cj.MarkCommitted("w2"); err != nil {
		t.Fatalf("MarkCommitted: %v", err)
	}
	lagSeq := cj.ReadIndex()
	if fi := f.Journal().ReadIndex(); fi >= lagSeq {
		t.Fatalf("follower index %d not lagging coordinator %d", fi, lagSeq)
	}

	done := make(chan Response, 1)
	go func() {
		resp, err := d.readCall(t, f.ServicePipe(), "Read", 5*time.Second)
		if err != nil {
			resp = Response{Status: statusError, Error: err.Error()}
		}
		done <- resp
	}()

	// The read must be parked at the barrier, not answered stale.
	select {
	case resp := <-done:
		t.Fatalf("lagging follower answered read early: %+v", resp)
	case <-time.After(300 * time.Millisecond):
	}

	// Deliver the missing commit; the barrier releases.
	entry, ok := cj.Entry("w2")
	if !ok {
		t.Fatal("coordinator lost entry w2")
	}
	f.Journal().ApplyCommit(entry)

	select {
	case resp := <-done:
		if resp.Status != statusOK {
			t.Fatalf("read after catch-up: %s (%s)", resp.Status, resp.Error)
		}
		if resp.ReadIndex != lagSeq {
			t.Fatalf("ReadIndex = %d, want %d", resp.ReadIndex, lagSeq)
		}
		if resp.ReadSeq < resp.ReadIndex {
			t.Fatalf("staleness violation: ReadSeq %d < ReadIndex %d", resp.ReadSeq, resp.ReadIndex)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("read never released after the commit reached the follower")
	}
}

// TestQueryReadIndex exercises the operator-facing readindex query
// against coordinator and follower.
func TestQueryReadIndex(t *testing.T) {
	d := newReadDeployment(t, 2)
	coord := coordOf(t, d)
	if st, em, _ := d.keyedCall(t, coord.ServicePipe(), "Op", "w1", []byte("<p/>")); st != statusOK {
		t.Fatalf("write: %s %s", st, em)
	}

	port, err := d.net.NewPort("qclient")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	client := p2p.NewPeer("qclient", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	r := p2p.NewResolverOn(client, ProtoBinding)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, p := range d.peers {
		idx, err := QueryReadIndex(ctx, r, p.Addr())
		if err != nil {
			t.Fatalf("QueryReadIndex(%s): %v", p.Name(), err)
		}
		if idx < 1 {
			t.Fatalf("QueryReadIndex(%s) = %d, want >= 1", p.Name(), idx)
		}
	}
}

// TestInterruptedReadIsAnsweredRetryably: an execution cut short — the
// handler reports a cancelled context, as one that honours its context
// does when the replica goes down under it — says nothing about the
// service. A marked read must answer it with an infrastructure message,
// which the proxy retries on a sibling replica, never with an
// application error, which the proxy hands to the client.
func TestInterruptedReadIsAnsweredRetryably(t *testing.T) {
	check := func(t *testing.T, resp Response) {
		t.Helper()
		if resp.Status != statusError || !IsInfraErrMsg(resp.Error) {
			t.Fatalf("interrupted read answered status=%s error=%q, want an infrastructure message", resp.Status, resp.Error)
		}
	}
	t.Run("handler reports cancellation", func(t *testing.T) {
		d := newBareDeployment(t, func(string) Handler {
			return HandlerFunc(func(context.Context, string, []byte) ([]byte, error) {
				return nil, fmt.Errorf("backend query: %w", context.Canceled)
			})
		})
		d.readOps = []string{"Read"}
		d.addPeer(t, 0)
		resp, err := d.readCall(t, coordOf(t, d).ServicePipe(), "Read", 2*time.Second)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		check(t, resp)
	})
	t.Run("replica closed mid-read", func(t *testing.T) {
		entered := make(chan struct{}, 1)
		var exited atomic.Bool
		d := newBareDeployment(t, func(string) Handler {
			return HandlerFunc(func(ctx context.Context, _ string, _ []byte) ([]byte, error) {
				entered <- struct{}{}
				<-ctx.Done()
				time.Sleep(20 * time.Millisecond)
				exited.Store(true)
				return nil, ctx.Err()
			})
		})
		d.readOps = []string{"Read"}
		d.addPeer(t, 0)
		bp := coordOf(t, d)
		joined := make(chan bool, 1)
		go func() {
			<-entered
			_ = bp.Close()
			joined <- exited.Load()
		}()
		// The reply races the teardown of the transport under it: no
		// answer at all is fine (the caller times out and retries).
		if resp, err := d.readCall(t, bp.ServicePipe(), "Read", 300*time.Millisecond); err == nil {
			check(t, resp)
		}
		// Reads are served off the serve loop; teardown must still join
		// them, or a Restart rebuilds the replica under a live read.
		if !<-joined {
			t.Error("Close returned while the marked read was still executing")
		}
	})
}
