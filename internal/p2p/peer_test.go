package p2p

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"whisper/internal/simnet"
)

// testHarness wires N peers on a zero-latency simulated network.
type testHarness struct {
	net   *simnet.Network
	gen   *IDGen
	peers []*Peer
}

func newHarness(t *testing.T, n int) *testHarness {
	t.Helper()
	h := &testHarness{
		net: simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		gen: NewIDGen(1),
	}
	t.Cleanup(func() { _ = h.net.Close() })
	for i := 0; i < n; i++ {
		h.peers = append(h.peers, h.addPeer(t, string(rune('a'+i))))
	}
	return h
}

func (h *testHarness) addPeer(t *testing.T, name string) *Peer {
	t.Helper()
	port, err := h.net.NewPort(name)
	if err != nil {
		t.Fatalf("port %s: %v", name, err)
	}
	p := NewPeer(name, h.gen.New(PeerIDKind), port)
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestPeerDispatch(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]

	got := make(chan simnet.Message, 1)
	b.Handle("custom", func(m simnet.Message) { got <- m })
	a.Start()
	b.Start()

	if err := a.Send(b.Addr(), simnet.Message{Proto: "custom", Kind: "x", Payload: []byte("hi")}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case m := <-got:
		if string(m.Payload) != "hi" {
			t.Errorf("payload = %q", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("handler not invoked")
	}
}

func TestPeerIgnoresUnknownProto(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	var count atomic.Int64
	b.Handle("known", func(simnet.Message) { count.Add(1) })
	a.Start()
	b.Start()
	_ = a.Send(b.Addr(), simnet.Message{Proto: "unknown"})
	_ = a.Send(b.Addr(), simnet.Message{Proto: "known"})
	deadline := time.Now().Add(time.Second)
	for count.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 1 {
		t.Errorf("handler invocations = %d, want 1", count.Load())
	}
}

func TestPeerAdvertisement(t *testing.T) {
	h := newHarness(t, 1)
	adv := h.peers[0].Advertisement()
	if adv.Addr != h.peers[0].Addr() || adv.PID != h.peers[0].ID() || adv.Name != h.peers[0].Name() {
		t.Errorf("advertisement mismatch: %+v", adv)
	}
}

func TestPeerCloseBeforeStart(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.peers[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := h.peers[0].Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestResolverQueryResponse(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	ra := NewResolver(a)
	rb := NewResolver(b)
	rb.RegisterHandler("echo", func(from string, payload []byte) ([]byte, error) {
		return append([]byte("echo:"), payload...), nil
	})
	a.Start()
	b.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := ra.Query(ctx, b.Addr(), "echo", []byte("ping"))
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if string(resp) != "echo:ping" {
		t.Errorf("resp = %q", resp)
	}
}

func TestResolverHandlerError(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	ra := NewResolver(a)
	rb := NewResolver(b)
	rb.RegisterHandler("boom", func(string, []byte) ([]byte, error) {
		return nil, context.DeadlineExceeded
	})
	a.Start()
	b.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := ra.Query(ctx, b.Addr(), "boom", nil); err == nil {
		t.Error("expected handler error to surface")
	}
}

func TestResolverNoSuchHandler(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	ra := NewResolver(a)
	NewResolver(b) // resolver attached but no handler registered
	a.Start()
	b.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := ra.Query(ctx, b.Addr(), "missing", nil); err == nil {
		t.Error("expected error for missing handler")
	}
}

func TestResolverQueryTimeout(t *testing.T) {
	h := newHarness(t, 2)
	a, b := h.peers[0], h.peers[1]
	ra := NewResolver(a)
	// b never starts, so the query is never answered.
	_ = b
	a.Start()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if _, err := ra.Query(ctx, b.Addr(), "echo", nil); err == nil {
		t.Error("expected timeout")
	}
}

func TestResolverPropagateCollectsAll(t *testing.T) {
	h := newHarness(t, 4)
	querier := h.peers[0]
	rq := NewResolver(querier)
	var targets []string
	for _, p := range h.peers[1:] {
		r := NewResolver(p)
		name := p.Name()
		r.RegisterHandler("who", func(string, []byte) ([]byte, error) {
			return []byte(name), nil
		})
		targets = append(targets, p.Addr())
	}
	for _, p := range h.peers {
		p.Start()
	}

	got := map[string]bool{}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	err := rq.Propagate(ctx, targets, "who", nil, func(resp Response) bool {
		if resp.Err != nil {
			t.Errorf("response error: %v", resp.Err)
		}
		got[string(resp.Payload)] = true
		return false
	})
	if err != nil {
		t.Fatalf("propagate: collected %d/%d responses: %v", len(got), len(targets), err)
	}
	if len(got) != 3 {
		t.Errorf("unique responders = %d, want 3", len(got))
	}
}
