// Golden file for the lockheld analyzer. The go toolchain ignores
// testdata directories, so the deliberate violations here never build.
package lockheldtest

import (
	"sync"
	"time"
)

type pipe struct{}

func (pipe) Send(b []byte) error { return nil }

type peer struct {
	mu   sync.Mutex
	out  chan int
	pipe pipe
}

func (p *peer) badSend() {
	p.mu.Lock()
	p.out <- 1 // want "held across channel send"
	p.mu.Unlock()
}

func (p *peer) badSleep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	time.Sleep(time.Millisecond) // want "held across time.Sleep"
}

func (p *peer) badRecv() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return <-p.out // want "held across channel receive"
}

func (p *peer) badSelect() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want "held across select"
	case v := <-p.out:
		_ = v
	}
}

func (p *peer) badPipeCall() {
	p.mu.Lock()
	defer p.mu.Unlock()
	_ = p.pipe.Send(nil) // want "held across Send call"
}

// True negatives: the same operations with the lock released first, a
// non-parking select, branch-local locks, and an explicit suppression.

func (p *peer) goodRelease() {
	p.mu.Lock()
	v := 1
	p.mu.Unlock()
	p.out <- v
}

func (p *peer) goodSelectDefault() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case v := <-p.out:
		_ = v
	default:
	}
}

func (p *peer) goodBranchLocal(cond bool) {
	if cond {
		p.mu.Lock()
		p.mu.Unlock()
	}
	p.out <- 1
}

func (p *peer) goodGoroutine() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.out <- 1 // runs on another goroutine, which holds nothing
	}()
}

func (p *peer) suppressed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.out <- 2 //lint:allow lockorder buffered channel with a dedicated drainer, never parks
}
