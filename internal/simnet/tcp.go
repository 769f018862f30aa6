package simnet

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// TCPTransport implements Transport over real TCP sockets, for the
// examples, whisperd and the mixed_tcp benchmark workload. Connections
// are persistent and one-way: the first Send to a destination dials it,
// later Sends write one frame each (frame.go) on that connection, and
// every accepted connection is drained into Recv by its own reader.
//
//   - A peer that went away is an error, not silent loss: the sender
//     watches each outbound connection for the far end's FIN or RST and
//     forgets it, so the next Send dials and reports the refusal, and a
//     failed write is retried once over a fresh connection. Only a Send
//     racing the far end's close is lost without an error.
//   - An attempt is bounded by tcpDialTimeout plus tcpWriteTimeout, so a
//     stopped or black-holed peer is an error, not a wedged caller.
//   - One pair's messages arrive in the order sent. The simulated
//     network with jitter reorders: no protocol may rely on it.
type TCPTransport struct {
	ln   net.Listener
	addr string

	mu     sync.Mutex
	closed bool
	peers  map[string]*tcpPeer   // outbound, by destination
	conns  map[net.Conn]struct{} // every open connection, either direction

	out  chan Message
	done chan struct{} // closed by Close: releases readers parked on an undrained Recv
	wg   sync.WaitGroup
}

// tcpPeer is the outbound connection to one destination. It leaves the
// table when its connection dies or cannot be made.
type tcpPeer struct {
	mu   sync.Mutex // serialises dial and writes: one frame at a time
	conn net.Conn   // nil until the first Send dials
	gone bool       // off the table: Send looks the destination up again
	buf  []byte     // frame scratch
}

const tcpDialTimeout, tcpWriteTimeout = time.Second, time.Second

var _ Transport = (*TCPTransport)(nil)

// NewTCPTransport listens on the given address ("host:port", empty
// port picks a free one) and starts accepting inbound connections.
func NewTCPTransport(listen string) (*TCPTransport, error) {
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, fmt.Errorf("simnet: tcp listen: %w", err)
	}
	t := &TCPTransport{
		ln:    ln,
		addr:  ln.Addr().String(),
		peers: make(map[string]*tcpPeer),
		conns: make(map[net.Conn]struct{}),
		out:   make(chan Message),
		done:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr implements Transport; it returns the bound listen address,
// which doubles as the peer's identity on the wire.
func (t *TCPTransport) Addr() string { return t.addr }

// Send implements Transport. The destination must be a dialable
// "host:port" address.
func (t *TCPTransport) Send(to string, msg Message) error {
	msg.Src = t.addr
	msg.Dst = to
	var p *tcpPeer
	for { // lock the destination's table entry, adding one if there is none
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return ErrClosed
		}
		p = t.peers[to]
		if p == nil {
			p = &tcpPeer{}
			t.peers[to] = p
		}
		t.mu.Unlock()
		p.mu.Lock()
		if !p.gone {
			break
		}
		p.mu.Unlock()
	}
	defer p.mu.Unlock()
	frame, err := AppendFrame(p.buf[:0], &msg)
	if err != nil {
		return err
	}
	if cap(frame) <= 64<<10 { // a snapshot-sized buffer is not kept for the connection's life
		p.buf = frame
	}
	// Dial if there is no connection, and once more if the write fails
	// on an old one. A failure drops p.
	for {
		fresh := p.conn == nil
		if fresh {
			if p.conn, err = t.dial(to, p); err != nil {
				t.drop(to, p)
				return err
			}
		}
		_ = p.conn.SetWriteDeadline(WallClock{}.Now().Add(tcpWriteTimeout))
		if _, err = p.conn.Write(frame); err == nil {
			return nil
		}
		// Part of the frame may be on the wire: this connection is done.
		t.forget(p.conn)
		p.conn = nil
		// A peer that accepts but does not read gains nothing from a
		// second connection.
		if fresh || errors.Is(err, os.ErrDeadlineExceeded) {
			t.drop(to, p)
			return fmt.Errorf("simnet: tcp write %s: %w", to, err)
		}
	}
}

// dial connects to the destination and starts the watcher that drops p
// when the far end goes away.
func (t *TCPTransport) dial(to string, p *tcpPeer) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", to, tcpDialTimeout)
	if err != nil {
		return nil, fmt.Errorf("simnet: tcp dial %s: %w", to, err)
	}
	if !t.track(conn) {
		return nil, ErrClosed
	}
	go func() {
		defer t.wg.Done()
		// The far end never writes: Read returns on its FIN or RST, or
		// when this side closes the connection.
		_, _ = conn.Read(make([]byte, 1))
		p.mu.Lock()
		if p.conn == conn {
			p.conn = nil
			t.drop(to, p)
		}
		p.mu.Unlock()
		t.forget(conn)
	}()
	return conn, nil
}

// drop takes p off the table; p.mu is held.
func (t *TCPTransport) drop(to string, p *tcpPeer) {
	p.gone = true
	t.mu.Lock()
	if t.peers[to] == p {
		delete(t.peers, to)
	}
	t.mu.Unlock()
}

// track registers an open connection and counts the goroutine that
// will serve it; on a closed transport it closes conn instead.
func (t *TCPTransport) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = conn.Close()
		return false
	}
	t.conns[conn] = struct{}{}
	t.wg.Add(1)
	return true
}

// forget closes a tracked connection.
func (t *TCPTransport) forget(conn net.Conn) {
	t.mu.Lock()
	delete(t.conns, conn)
	t.mu.Unlock()
	_ = conn.Close()
}

// Recv implements Transport.
func (t *TCPTransport) Recv() <-chan Message { return t.out }

// Close implements Transport. It closes the listener and every
// connection and returns once every goroutine has exited.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for conn := range t.conns {
		_ = conn.Close()
	}
	t.mu.Unlock()
	close(t.done)
	err := t.ln.Close()
	t.wg.Wait()
	close(t.out)
	return err
}

func (t *TCPTransport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		if t.track(conn) {
			go t.readLoop(conn)
		}
	}
}

// readLoop delivers one connection's frames to Recv until the sender
// closes it, sends a malformed frame, or the transport closes.
func (t *TCPTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer t.forget(conn)
	r := bufio.NewReader(conn)
	for {
		msg, err := readFrame(r)
		if err != nil {
			return
		}
		select {
		case t.out <- msg:
		case <-t.done:
			return
		}
	}
}

// readFrame reads one frame into a buffer of its own: the message's
// Payload aliases it.
func readFrame(r *bufio.Reader) (Message, error) {
	prefix, err := r.Peek(4)
	if err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(prefix)
	if n > MaxFrame { // checked before allocating that many bytes
		return Message{}, errFrame
	}
	frame := make([]byte, 4+n)
	if _, err := io.ReadFull(r, frame); err != nil {
		return Message{}, err
	}
	return DecodeFrame(frame)
}
