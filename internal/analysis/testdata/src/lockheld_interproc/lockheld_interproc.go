// Golden file for the interprocedural side of the lockheld analyzer:
// the blocking primitive sits in a callee (or a callee's callee), and
// the diagnostic lands at the call site under the held lock, naming
// the chain. The PR 4 intraprocedural analyzer could not see any of
// these.
package lockheldinterproctest

import "sync"

type hub struct {
	mu     sync.Mutex
	events chan int
}

func (h *hub) emit() { h.events <- 1 }

func (h *hub) emitAll() { h.emit() }

func (h *hub) badDirectCallee() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.emit() // want "h.mu is held across call to \(hub\).emit, which blocks \(channel send at .*\); release the lock before blocking"
}

func (h *hub) badTwoHops() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.emitAll() // want "held across call to \(hub\).emitAll, which blocks \(channel send at .* via \(hub\).emit\)"
}

// Cross-function via a plain function rather than a method.

func drain(h *hub) { <-h.events }

func (h *hub) badFuncCallee() {
	h.mu.Lock()
	defer h.mu.Unlock()
	drain(h) // want "held across call to drain, which blocks \(channel receive at .*\)"
}

// True negatives: a non-blocking callee under the lock, the blocking
// callee after release, and a goroutine hand-off.

func (h *hub) tally() int { return 1 }

func (h *hub) goodPureCallee() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.tally()
}

func (h *hub) goodReleasedFirst() {
	h.mu.Lock()
	h.mu.Unlock()
	h.emit()
}

func (h *hub) goodGoroutine() {
	h.mu.Lock()
	defer h.mu.Unlock()
	go h.emit() // runs on another goroutine, which holds nothing
}

func (h *hub) suppressed() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.emit() //lint:allow lockorder events is buffered for the worst-case fan-out; the send cannot park
}
