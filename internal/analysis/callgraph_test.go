package analysis

import (
	"strings"
	"testing"
)

// projectOf builds a one-package project from source.
func projectOf(t *testing.T, importPath, src string) (*Project, *Package) {
	t.Helper()
	pkg := loadSrc(t, importPath, src)
	return NewProject(pkg), pkg
}

func summaryOf(t *testing.T, p *Project, id FuncID) *Summary {
	t.Helper()
	fn := p.Funcs[id]
	if fn == nil {
		var have []string
		for k := range p.Funcs {
			have = append(have, string(k))
		}
		t.Fatalf("no function %s in project (have %s)", id, strings.Join(have, ", "))
	}
	return fn.Summary
}

func TestCallGraphMutualRecursionFixpoint(t *testing.T) {
	p, _ := projectOf(t, "whisper/internal/x", `package p

func ping(ch chan int, n int) {
	if n == 0 {
		ch <- 1
		return
	}
	pong(ch, n-1)
}

func pong(ch chan int, n int) {
	ping(ch, n)
}

func pure(n int) int {
	if n == 0 {
		return 0
	}
	return pure(n - 1)
}
`)
	// The blocking fact must propagate around the ping<->pong cycle to
	// both members of the SCC.
	for _, id := range []FuncID{"whisper/internal/x.ping", "whisper/internal/x.pong"} {
		if s := summaryOf(t, p, id); s.Blocking == nil {
			t.Errorf("%s: Blocking = nil, want channel-send fact through the recursion", id)
		}
	}
	if s := summaryOf(t, p, "whisper/internal/x.pure"); s.Blocking != nil {
		t.Errorf("pure self-recursion gained a blocking fact: %+v", s.Blocking)
	}
}

func TestCallGraphMethodValueEdge(t *testing.T) {
	p, _ := projectOf(t, "whisper/internal/x", `package p

type worker struct{ ch chan int }

func (w *worker) run() { w.ch <- 1 }

func (w *worker) start() func() {
	return w.run // method value: an edge without a call operator
}
`)
	fn := p.Funcs["whisper/internal/x.(worker).start"]
	if fn == nil {
		t.Fatal("start not indexed")
	}
	found := false
	for _, cs := range fn.Calls {
		if cs.Callee == "whisper/internal/x.(worker).run" {
			found = true
		}
	}
	if !found {
		t.Errorf("method-value reference w.run produced no call edge; edges: %+v", fn.Calls)
	}
}

func TestCallGraphConstructorTypedLocal(t *testing.T) {
	p, _ := projectOf(t, "whisper/internal/x", `package p

import "sync"

type box struct {
	mu sync.Mutex
	ch chan int
}

func newBox() *box { return &box{} }

func useConstructor() {
	b := newBox()
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- 1
}
`)
	fn := p.Funcs["whisper/internal/x.useConstructor"]
	if fn == nil {
		t.Fatal("useConstructor not indexed")
	}
	// The local b resolves through newBox's result type, so the lock
	// canonicalizes to the named field path and the held-block fires.
	if len(fn.heldBlocks) != 1 {
		t.Fatalf("heldBlocks = %+v, want exactly one (send under b.mu)", fn.heldBlocks)
	}
	s := summaryOf(t, p, "whisper/internal/x.useConstructor")
	if _, ok := s.Acquires["whisper/internal/x.(box).mu"]; !ok {
		t.Errorf("lock not canonicalized by field path; acquires: %+v", s.Acquires)
	}
}

func TestCallGraphCrossPackageEdge(t *testing.T) {
	pkgA := loadSrc(t, "whisper/internal/wire", `package wire

func Flush(ch chan int) { ch <- 1 }
`)
	pkgB := loadSrc(t, "whisper/internal/client", `package client

import "whisper/internal/wire"

func Push(ch chan int) { wire.Flush(ch) }
`)
	p := NewProject(pkgA, pkgB)
	s := summaryOf(t, p, "whisper/internal/client.Push")
	if s.Blocking == nil {
		t.Fatal("cross-package blocking fact did not propagate")
	}
	if len(s.Blocking.Via) == 0 || s.Blocking.Via[0] != "whisper/internal/wire.Flush" {
		t.Errorf("via chain = %+v, want [wire.Flush]", s.Blocking.Via)
	}
}

func TestCallGraphApproxEdgesNeverCarryLockFacts(t *testing.T) {
	p, _ := projectOf(t, "whisper/internal/x", `package p

import "sync"

type locker struct{ mu sync.Mutex }

// Grab matches by name only from the interface call below.
func (l *locker) Grab() {
	l.mu.Lock()
	l.mu.Unlock()
}

type grabber interface{ Grab() }

func dispatch(g grabber) {
	g.Grab()
}
`)
	s := summaryOf(t, p, "whisper/internal/x.dispatch")
	if len(s.Acquires) != 0 {
		t.Errorf("approximate (name-matched) edge leaked lock facts: %+v", s.Acquires)
	}
	fn := p.Funcs["whisper/internal/x.dispatch"]
	if len(fn.callsApprox) == 0 {
		t.Errorf("expected an approximate edge for the interface dispatch")
	}
}

// TestInterproceduralDeadlockFixture is the miss-proof the PR demands:
// the deadlock fixture's AB/BA inversion exists only through the call
// graph. The full engine reports it; the same engine with every call
// edge stripped — which is exactly the PR 4 intraprocedural view —
// provably reports nothing.
func TestInterproceduralDeadlockFixture(t *testing.T) {
	pkg, err := LoadDir("whisper/internal/replog", td("deadlock"))
	if err != nil {
		t.Fatal(err)
	}
	proj := NewProject(pkg)

	diags := RunProject(proj, []*Analyzer{LockOrder})
	if len(diags) == 0 {
		t.Fatal("interprocedural engine missed the cross-function lock-order cycle")
	}
	msg := diags[0].Message
	for _, lock := range []string{"(journal).mu", "(state).mu"} {
		if !strings.Contains(msg, lock) {
			t.Errorf("cycle report does not name %s: %s", lock, msg)
		}
	}

	// Emulate the PR 4 intraprocedural engine: re-summarize every
	// function while hiding all callee summaries, so propagation has
	// nothing to merge (the walk itself only sees each body's own
	// primitives). No function acquires both locks directly, so no
	// ordering and no held-block survives.
	intra := NewProject(pkg)
	intra.orderEdges = map[lockEdge]*orderFact{}
	for _, fn := range intra.Funcs {
		fn.Summary = nil
		fn.heldBlocks = nil
	}
	saved := map[FuncID]*Summary{}
	for id, fn := range intra.Funcs {
		intra.summarize(fn, true)
		saved[id] = fn.Summary
		fn.Summary = nil // keep later functions blind to this one
	}
	for id, fn := range intra.Funcs {
		fn.Summary = saved[id]
	}
	if diags := RunProject(intra, []*Analyzer{LockOrder}); len(diags) != 0 {
		t.Fatalf("intraprocedural view unexpectedly reported: %v", diags)
	}
}

func TestHotpathDirective(t *testing.T) {
	p, _ := projectOf(t, "whisper/internal/x", `package p

// documented carries the directive in its doc comment.
//
//lint:hotpath
func documented() {}

func trailing() { //lint:hotpath
}

func plain() {}

//lint:hotpath
var notAFunc = 0
`)
	for name, want := range map[string]bool{"documented": true, "trailing": true, "plain": false} {
		if got := p.Funcs[FuncID("whisper/internal/x."+name)].Hot; got != want {
			t.Errorf("%s: Hot = %v, want %v", name, got, want)
		}
	}
}
