package simnet

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

func TestTCPTransportRoundTrip(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("transport a: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("transport b: %v", err)
	}
	t.Cleanup(func() { _ = b.Close() })

	want := Message{
		Proto:   "pipe",
		Kind:    "request",
		Headers: map[string]string{"corr": "42"},
		Payload: []byte("<soap/>"),
	}
	if err := a.Send(b.Addr(), want); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case got := <-b.Recv():
		if string(got.Payload) != "<soap/>" {
			t.Errorf("payload = %q", got.Payload)
		}
		if got.Header("corr") != "42" {
			t.Errorf("header corr = %q, want 42", got.Header("corr"))
		}
		if got.Src != a.Addr() {
			t.Errorf("src = %q, want %q", got.Src, a.Addr())
		}
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for TCP delivery")
	}
}

func TestTCPTransportSendToDeadAddr(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	t.Cleanup(func() { _ = a.Close() })
	if err := a.Send("127.0.0.1:1", Message{Proto: "t"}); err == nil {
		t.Error("expected dial error sending to dead address")
	}
}

func TestTCPTransportClose(t *testing.T) {
	a, err := NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := a.Send("127.0.0.1:1", Message{}); err == nil {
		t.Error("send after close should error")
	}
	if _, ok := <-a.Recv(); ok {
		t.Error("recv open after close")
	}
}

func newTCP(t *testing.T, listen string) *TCPTransport {
	t.Helper()
	tr, err := NewTCPTransport(listen)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

func (t *TCPTransport) hasPeer(to string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peers[to] != nil
}

// recvOne fails the test unless a message arrives within two seconds.
func recvOne(t *testing.T, tr *TCPTransport) Message {
	t.Helper()
	select {
	case msg := <-tr.Recv():
		return msg
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for TCP delivery")
		return Message{}
	}
}

// sendUntilError sends until Send reports the dead peer. Only a Send
// racing the far end's FIN may still return nil, so a handful suffice;
// it returns how long the failing Send took.
func sendUntilError(t *testing.T, tr *TCPTransport, to string) time.Duration {
	t.Helper()
	for i := 0; i < 100; i++ {
		start := time.Now()
		if err := tr.Send(to, Message{Proto: "t"}); err != nil {
			return time.Since(start)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("100 sends to a closed peer all returned nil")
	return 0
}

func TestTCPTransportOneConnectionPerPeerInOrder(t *testing.T) {
	const sends = 200
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	accepts := make(chan net.Conn, sends) // room for one accept per send: the old behaviour must not block the listener
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepts <- conn
		}
	}()

	a := newTCP(t, "127.0.0.1:0")
	for i := 0; i < sends; i++ {
		if err := a.Send(ln.Addr().String(), Message{Proto: "t", Kind: fmt.Sprint(i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	conn := <-accepts
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReader(conn)
	for i := 0; i < sends; i++ {
		msg, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Kind != fmt.Sprint(i) || msg.Src != a.Addr() {
			t.Fatalf("frame %d = %s from %s", i, msg.Kind, msg.Src)
		}
	}
	if n := len(accepts); n != 0 {
		t.Errorf("%d connections accepted for %d sends, want 1", n+1, sends)
	}
}

func TestTCPTransportConcurrentSendsArriveIntact(t *testing.T) {
	const senders, each = 8, 100
	a, b := newTCP(t, "127.0.0.1:0"), newTCP(t, "127.0.0.1:0")
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("%d/%d", g, i)
				// Payloads of different lengths: interleaved writes would
				// misalign the frames.
				msg := Message{Proto: "t", Kind: id, Payload: []byte(fmt.Sprintf("%0*d", 10+g*37, i))}
				if err := a.Send(b.Addr(), msg); err != nil {
					t.Errorf("send %s: %v", id, err)
					return
				}
			}
		}(g)
	}
	seen := make(map[string]bool)
	for len(seen) < senders*each && !t.Failed() {
		msg := recvOne(t, b)
		var g, i int
		if _, err := fmt.Sscanf(msg.Kind, "%d/%d", &g, &i); err != nil || seen[msg.Kind] ||
			string(msg.Payload) != fmt.Sprintf("%0*d", 10+g*37, i) {
			t.Fatalf("message %q (payload %q) is damaged or a duplicate", msg.Kind, msg.Payload)
		}
		seen[msg.Kind] = true
	}
	wg.Wait()
}

func TestTCPTransportReachesPeerRestartedOnSameAddress(t *testing.T) {
	a, b := newTCP(t, "127.0.0.1:0"), newTCP(t, "127.0.0.1:0")
	addr := b.Addr()
	if err := a.Send(addr, Message{Proto: "t", Kind: "before"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	recvOne(t, b)
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sendUntilError(t, a, addr)

	b2 := newTCP(t, addr)
	if err := a.Send(addr, Message{Proto: "t", Kind: "after"}); err != nil {
		t.Fatalf("send to the restarted peer: %v", err)
	}
	if msg := recvOne(t, b2); msg.Kind != "after" {
		t.Errorf("restarted peer received %q", msg.Kind)
	}
}

func TestTCPTransportSendToClosedPeerErrsAndForgetsIt(t *testing.T) {
	a, b := newTCP(t, "127.0.0.1:0"), newTCP(t, "127.0.0.1:0")
	addr := b.Addr()
	if err := a.Send(addr, Message{Proto: "t"}); err != nil {
		t.Fatalf("send: %v", err)
	}
	recvOne(t, b)
	if !a.hasPeer(addr) {
		t.Fatal("no table entry after a successful send")
	}
	if err := b.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if took := sendUntilError(t, a, addr); took > tcpDialTimeout+tcpWriteTimeout {
		t.Errorf("failing send took %v, bound is %v", took, tcpDialTimeout+tcpWriteTimeout)
	}
	if a.hasPeer(addr) {
		t.Error("table still holds the closed peer")
	}
	// Once reported, the refusal stays reported.
	for i := 0; i < 10; i++ {
		if err := a.Send(addr, Message{Proto: "t"}); err == nil {
			t.Fatalf("send %d after the first error returned nil", i)
		}
	}
}

func TestTCPTransportCloseWithSendersInFlightAndNoReader(t *testing.T) {
	a, b := newTCP(t, "127.0.0.1:0"), newTCP(t, "127.0.0.1:0")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Nobody drains b.Recv(): its reader parks on the first
			// message and these sends fill the socket buffers.
			for a.Send(b.Addr(), Message{Proto: "t", Payload: make([]byte, 32<<10)}) == nil {
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		_ = b.Close()
		_ = a.Close()
		wg.Wait()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return with senders in flight and an undrained Recv")
	}
	// TestMain's leak check holds Close to "leaves no goroutine".
}
