package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Fact locates one derived behavior together with the call chain that
// reaches it from the summarized function (empty Via = direct).
type Fact struct {
	// What names the primitive ("channel send", "time.Sleep",
	// "fmt.Sprintf", "append growth", ...).
	What string
	// Pos is where the primitive operation sits (possibly in a callee).
	Pos token.Position
	// Via is the call chain from the summarized function to Pos.
	Via []FuncID
	// Loop marks a fact that executes once per loop iteration.
	Loop bool
}

// viaString renders the call chain for diagnostics.
func viaString(via []FuncID) string {
	if len(via) == 0 {
		return ""
	}
	parts := make([]string, len(via))
	for i, id := range via {
		parts[i] = shortFuncID(id)
	}
	return " via " + strings.Join(parts, " → ")
}

// shortFuncID drops the package path from a FuncID for messages.
func shortFuncID(id FuncID) string {
	s := string(id)
	if i := strings.Index(s, ".("); i >= 0 {
		return s[i+1:]
	}
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		s = s[i+1:]
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// acqFact records one lock acquisition reachable from a function.
type acqFact struct {
	display string
	pos     token.Position
	via     []FuncID
}

// Summary is the bottom-up interprocedural summary of one declared
// function: whether calling it can park the goroutine, which locks it
// (transitively) acquires, and its steady-state allocation facts.
// Function literals inside the body are excluded — they run under
// their own goroutine's or caller's contract — except for allocation
// facts, where an inline helper closure's cost is attributed to the
// function constructing it.
type Summary struct {
	// Blocking is non-nil when calling the function can park the
	// goroutine: channel operation, select without default, time.Sleep,
	// a messaging call (Send/Call/Query/Invoke/Propagate), or a call to
	// a function that blocks.
	Blocking *Fact
	// Acquires maps canonical lock IDs to the acquisition reachable
	// from this function (directly or through callees).
	Acquires map[string]acqFact
	// Allocs are steady-state allocation facts (capped at allocCap).
	Allocs []Fact
}

// allocCap bounds the allocation facts kept per function.
const allocCap = 4

// heldBlockFact is one blocking-operation-under-held-lock occurrence,
// reported by the lockorder analyzer.
type heldBlockFact struct {
	lockDisplay string
	lockPos     token.Position
	what        string
	pos         token.Position
}

// lockEdge is one ordered pair in the global lock-acquisition graph:
// from held while to is acquired.
type lockEdge struct{ from, to string }

// orderFact is the evidence for one lock-order edge.
type orderFact struct {
	fromDisplay, toDisplay string
	pos                    token.Position
	fn                     FuncID
	via                    []FuncID
}

// computeSummaries runs the bottom-up summary computation: SCCs in
// reverse topological order (callees first), iterating each SCC to a
// fixpoint (the facts are monotone booleans and sets, so the sizes
// converge), then a final emitting pass that materializes the
// blocking-under-lock facts and the global lock-order edges exactly
// once.
func (p *Project) computeSummaries() {
	sccs := p.sccOrder()
	for _, scc := range sccs {
		for _, fn := range scc {
			if fn.Summary == nil {
				fn.Summary = &Summary{Acquires: map[string]acqFact{}}
			}
		}
		for round := 0; round <= len(scc); round++ {
			changed := false
			for _, fn := range scc {
				if p.summarize(fn, false) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	for _, fn := range p.Funcs {
		p.summarize(fn, true)
	}
}

// summarize recomputes fn's summary from its body and current callee
// summaries, reporting whether it grew. With emit set it also records
// heldBlocks and global order edges.
func (p *Project) summarize(fn *FuncInfo, emit bool) bool {
	old := fn.Summary
	w := &sumWalker{
		p:    p,
		fn:   fn,
		emit: emit,
		sum:  &Summary{Acquires: map[string]acqFact{}},
	}
	w.growers = collectGrowers(fn.Decl.Body)
	if emit {
		fn.heldBlocks = nil
	}
	w.stmts(fn.Decl.Body.List, map[string]heldLock{})
	fn.Summary = w.sum
	return summaryGrew(old, w.sum)
}

func summaryGrew(old, cur *Summary) bool {
	if old == nil {
		return true
	}
	return (old.Blocking == nil) != (cur.Blocking == nil) ||
		len(old.Acquires) != len(cur.Acquires) ||
		len(old.Allocs) != len(cur.Allocs)
}

// heldLock is one held mutex: canonical ID keyed, display + position
// carried for messages.
type heldLock struct {
	display string
	pos     token.Position
}

// collectGrowers finds slice variables declared without capacity
// (var s []T, s := []T{}, s := make([]T, n) with no cap) — appending
// to one of these inside a loop reallocates as it grows.
func collectGrowers(body *ast.BlockStmt) map[string]bool {
	growers := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && len(vs.Values) == 0 {
						if _, isSlice := vs.Type.(*ast.ArrayType); isSlice {
							for _, name := range vs.Names {
								growers[name.Name] = true
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			if s.Tok != token.DEFINE || len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := s.Rhs[i].(type) {
				case *ast.CompositeLit:
					if _, isSlice := rhs.Type.(*ast.ArrayType); isSlice && len(rhs.Elts) == 0 {
						growers[id.Name] = true
					}
				case *ast.CallExpr:
					if f, ok := rhs.Fun.(*ast.Ident); ok && f.Name == "make" && len(rhs.Args) < 3 {
						if _, isSlice := rhs.Args[0].(*ast.ArrayType); isSlice {
							growers[id.Name] = true
						}
					}
				}
			}
		}
		return true
	})
	return growers
}

// sumWalker performs the branch-sensitive facts walk over one function
// body (and, recursively with fresh held sets, its function literals).
type sumWalker struct {
	p    *Project
	fn   *FuncInfo
	emit bool
	sum  *Summary

	// inLit: walking a nested function literal. Blocking and Acquires
	// are not merged into the summary there (the literal runs under
	// its own contract); alloc facts and lock facts are.
	inLit     bool
	loopDepth int
	errDepth  int
	growers   map[string]bool
}

func (w *sumWalker) position(pos token.Pos) token.Position {
	return w.fn.Pkg.Fset.Position(pos)
}

// --- fact recording ---------------------------------------------------

func (w *sumWalker) blocking(held map[string]heldLock, pos token.Pos, what string, via []FuncID, factPos token.Position) {
	if !w.inLit && w.sum.Blocking == nil {
		fp := factPos
		if len(via) == 0 {
			fp = w.position(pos)
		}
		w.sum.Blocking = &Fact{What: what, Pos: fp, Via: via}
	}
	if w.emit && len(held) > 0 {
		reported := what
		if len(via) > 0 {
			reported = fmt.Sprintf("call to %s, which blocks (%s at %s%s)", shortFuncID(via[0]), what, factPos, viaString(via[1:]))
		}
		for _, h := range held {
			w.fn.heldBlocks = append(w.fn.heldBlocks, heldBlockFact{
				lockDisplay: h.display,
				lockPos:     h.pos,
				what:        reported,
				pos:         w.position(pos),
			})
		}
	}
}

func (w *sumWalker) alloc(pos token.Pos, what string, via []FuncID, loop bool) {
	if w.errDepth > 0 || len(w.sum.Allocs) >= allocCap {
		return
	}
	for _, f := range w.sum.Allocs {
		if f.What == what && len(f.Via) == len(via) {
			return
		}
	}
	w.sum.Allocs = append(w.sum.Allocs, Fact{What: what, Pos: w.position(pos), Via: via, Loop: loop || w.loopDepth > 0})
}

// acquire registers a direct lock acquisition: order edges from every
// held lock, then the held set and the summary grow.
func (w *sumWalker) acquire(held map[string]heldLock, recv ast.Expr, pos token.Pos) {
	id, display := w.lockID(recv)
	position := w.position(pos)
	if w.emit {
		for hid, h := range held {
			if hid == id {
				continue
			}
			w.orderEdge(hid, id, h.display, display, position, nil)
		}
	}
	held[id] = heldLock{display: display, pos: position}
	if !w.inLit {
		if _, ok := w.sum.Acquires[id]; !ok {
			w.sum.Acquires[id] = acqFact{display: display, pos: position}
		}
	}
}

func (w *sumWalker) orderEdge(from, to, fromDisplay, toDisplay string, pos token.Position, via []FuncID) {
	edge := lockEdge{from: from, to: to}
	if _, seen := w.p.orderEdges[edge]; seen {
		return
	}
	w.p.orderEdges[edge] = &orderFact{
		fromDisplay: fromDisplay,
		toDisplay:   toDisplay,
		pos:         pos,
		fn:          w.fn.ID,
		via:         via,
	}
}

// lockID canonicalizes a mutex receiver expression: field paths are
// keyed by the owning named type ("pkg.(BPeer).mu") so b.mu in every
// method of BPeer is the same lock; package-level mutexes by package
// path; anything unresolvable by its expression text scoped to the
// package.
func (w *sumWalker) lockID(recv ast.Expr) (id, display string) {
	display = exprString(recv)
	if sel, ok := recv.(*ast.SelectorExpr); ok {
		base := w.p.exprType(w.fn, sel.X)
		if base.known() {
			return base.pkg.ImportPath + ".(" + base.name + ")." + sel.Sel.Name, display
		}
	}
	if id, ok := recv.(*ast.Ident); ok {
		if _, local := w.fn.env[id.Name]; !local {
			return w.fn.Pkg.ImportPath + "." + id.Name, display
		}
	}
	return w.fn.Pkg.ImportPath + ":" + display, display
}

// --- statement walk ---------------------------------------------------

func (w *sumWalker) stmts(list []ast.Stmt, held map[string]heldLock) {
	for _, s := range list {
		w.stmt(s, held)
	}
}

func copyHeldLocks(held map[string]heldLock) map[string]heldLock {
	out := make(map[string]heldLock, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *sumWalker) stmt(s ast.Stmt, held map[string]heldLock) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if recv, name, ok := methodCall(w.fn.imports, call); ok && len(call.Args) == 0 {
				switch name {
				case "Lock", "RLock":
					w.acquire(held, recv, call.Pos())
					return
				case "Unlock", "RUnlock":
					id, _ := w.lockID(recv)
					delete(held, id)
					return
				}
			}
		}
		w.exprs(held, s.X)
	case *ast.AssignStmt:
		w.checkAppendGrowth(s)
		w.checkConcat(s)
		w.exprs(held, s.Rhs...)
		w.exprs(held, s.Lhs...)
	case *ast.SendStmt:
		w.blocking(held, s.Pos(), "channel send", nil, token.Position{})
		w.exprs(held, s.Chan, s.Value)
	case *ast.ReturnStmt:
		w.exprs(held, s.Results...)
	case *ast.IncDecStmt:
		w.exprs(held, s.X)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.exprs(held, s.Cond)
		guarded := mentionsErr(s.Cond)
		if guarded {
			w.errDepth++
		}
		w.stmts(s.Body.List, copyHeldLocks(held))
		if guarded {
			w.errDepth--
		}
		if s.Else != nil {
			w.stmt(s.Else, copyHeldLocks(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.exprs(held, s.Cond)
		}
		w.loopDepth++
		inner := copyHeldLocks(held)
		w.stmts(s.Body.List, inner)
		if s.Post != nil {
			w.stmt(s.Post, inner)
		}
		w.loopDepth--
	case *ast.RangeStmt:
		w.exprs(held, s.X)
		w.loopDepth++
		w.stmts(s.Body.List, copyHeldLocks(held))
		w.loopDepth--
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.exprs(held, s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.exprs(held, cc.List...)
				w.stmts(cc.Body, copyHeldLocks(held))
			}
		}
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.stmts(cc.Body, copyHeldLocks(held))
			}
		}
	case *ast.SelectStmt:
		w.selectStmt(s, held)
	case *ast.BlockStmt:
		w.stmts(s.List, held)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					w.exprs(held, vs.Values...)
				}
			}
		}
	case *ast.DeferStmt, *ast.GoStmt:
		// Deferred calls run after the body (a deferred Unlock keeps the
		// lock held for the rest of it — modeled by leaving the held set
		// untouched); go statements run on another goroutine that does
		// not hold this one's locks. Their function literals are walked
		// separately with a fresh held set.
		var call *ast.CallExpr
		if d, ok := s.(*ast.DeferStmt); ok {
			call = d.Call
		} else {
			call = s.(*ast.GoStmt).Call
		}
		if lit, ok := call.Fun.(*ast.FuncLit); ok {
			w.walkLit(lit)
		}
	}
}

// selectStmt: a select without default parks.
func (w *sumWalker) selectStmt(s *ast.SelectStmt, held map[string]heldLock) {
	hasDefault := false
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		w.blocking(held, s.Pos(), "select", nil, token.Position{})
	}
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok {
			w.stmts(cc.Body, copyHeldLocks(held))
		}
	}
}

// mentionsErr reports whether a condition inspects an error variable —
// allocation facts under such branches are failure-path costs, not
// steady state.
func mentionsErr(cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			l := strings.ToLower(id.Name)
			if l == "err" || strings.HasSuffix(l, "err") || l == "ok" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkAppendGrowth flags x = append(x, ...) in a loop when x was
// declared without capacity in this function.
func (w *sumWalker) checkAppendGrowth(s *ast.AssignStmt) {
	if w.loopDepth == 0 || len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok || !w.growers[lhs.Name] {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	if f, ok := call.Fun.(*ast.Ident); ok && f.Name == "append" {
		w.alloc(call.Pos(), "append growth on "+lhs.Name+" (declared without capacity)", nil, true)
	}
}

// checkConcat flags string building by + / += in a loop.
func (w *sumWalker) checkConcat(s *ast.AssignStmt) {
	if w.loopDepth == 0 {
		return
	}
	if s.Tok == token.ADD_ASSIGN && len(s.Rhs) == 1 && isStringish(w, s.Rhs[0]) {
		w.alloc(s.Pos(), "string += concatenation", nil, true)
	}
}

// isStringish: a string literal, or a .Error()/Sprintf-style call.
func isStringish(w *sumWalker, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.BinaryExpr:
		return e.Op == token.ADD && (isStringish(w, e.X) || isStringish(w, e.Y))
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Error" && len(e.Args) == 0 {
			return true
		}
	}
	return false
}

// isConstOperand reports whether the expression is a compile-time
// constant (literal or package-level const) — constant folding makes
// such concatenations free.
func (w *sumWalker) isConstOperand(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return w.p.consts[w.fn.Pkg][e.Name]
	case *ast.SelectorExpr:
		if x, ok := e.X.(*ast.Ident); ok {
			if path, isImport := w.fn.imports[x.Name]; isImport {
				if pkg := w.p.pkgByPath[path]; pkg != nil {
					return w.p.consts[pkg][e.Sel.Name]
				}
			}
		}
	case *ast.BinaryExpr:
		return e.Op == token.ADD && w.isConstOperand(e.X) && w.isConstOperand(e.Y)
	}
	return false
}

// --- expression walk --------------------------------------------------

// exprs scans expressions for blocking operations, project calls and
// allocation sites. Function literals are walked separately with a
// fresh held set.
func (w *sumWalker) exprs(held map[string]heldLock, list ...ast.Expr) {
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				if w.loopDepth > 0 {
					w.alloc(n.Pos(), "closure constructed per loop iteration", nil, true)
				}
				w.walkLit(n)
				return false
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					w.blocking(held, n.Pos(), "channel receive", nil, token.Position{})
				}
			case *ast.BinaryExpr:
				if n.Op == token.ADD && w.loopDepth > 0 &&
					(isStringish(w, n.X) || isStringish(w, n.Y)) &&
					!(w.isConstOperand(n.X) && w.isConstOperand(n.Y)) {
					w.alloc(n.Pos(), "string + concatenation", nil, true)
				}
			case *ast.CompositeLit:
				if w.loopDepth > 0 {
					switch n.Type.(type) {
					case *ast.MapType:
						w.alloc(n.Pos(), "map literal", nil, true)
					}
				} else {
					if _, isMap := n.Type.(*ast.MapType); isMap {
						w.alloc(n.Pos(), "constructs a fresh map per call", nil, false)
					}
				}
			case *ast.CallExpr:
				w.callExpr(held, n)
			}
			return true
		})
	}
}

// callExpr handles one call: builtin allocators, blocking primitives,
// stdlib formatting, and resolved project callees whose summaries
// propagate.
func (w *sumWalker) callExpr(held map[string]heldLock, call *ast.CallExpr) {
	// Builtins and conversions.
	if f, ok := call.Fun.(*ast.Ident); ok {
		switch f.Name {
		case "make":
			if w.loopDepth > 0 {
				w.alloc(call.Pos(), "make per loop iteration", nil, true)
			}
		case "string":
			if w.loopDepth > 0 && len(call.Args) == 1 && !w.isConstOperand(call.Args[0]) {
				w.alloc(call.Pos(), "string conversion per loop iteration", nil, true)
			}
		}
	}
	if at, ok := call.Fun.(*ast.ArrayType); ok && w.loopDepth > 0 &&
		len(call.Args) == 1 && !isNilIdent(call.Args[0]) { // []byte(nil) is free
		if id, ok := at.Elt.(*ast.Ident); ok && (id.Name == "byte" || id.Name == "rune") {
			w.alloc(call.Pos(), "[]"+id.Name+" conversion per loop iteration", nil, true)
		}
	}

	if path, name, ok := pkgFuncCall(w.fn.imports, call); ok {
		if path == "time" && name == "Sleep" {
			w.blocking(held, call.Pos(), "time.Sleep", nil, token.Position{})
			return
		}
		if path == "fmt" && (name == "Sprintf" || name == "Sprint" || name == "Sprintln") {
			w.alloc(call.Pos(), "fmt."+name, nil, false)
			return
		}
		// pkg.Func into a loaded project package.
		if pkg := w.p.pkgByPath[path]; pkg != nil {
			if callee := w.p.funcIndex[pkg][name]; callee != nil {
				w.propagate(held, call.Pos(), callee)
			}
			return
		}
		return
	}

	if _, name, ok := methodCall(w.fn.imports, call); ok && blockingMethods[name] {
		w.blocking(held, call.Pos(), name+" call", nil, token.Position{})
	}
	if callee := w.p.resolveCall(w.fn, call); callee != nil {
		w.propagate(held, call.Pos(), callee)
	}
}

// propagate merges a resolved callee's summary into the walk: blocking
// facts gain a via hop, the callee's transitive lock
// acquisitions order against every held lock, and allocation facts
// flow up.
func (w *sumWalker) propagate(held map[string]heldLock, pos token.Pos, callee *FuncInfo) {
	cs := callee.Summary
	if cs == nil {
		return
	}
	if cs.Blocking != nil {
		via := append([]FuncID{callee.ID}, cs.Blocking.Via...)
		w.blocking(held, pos, cs.Blocking.What, via, cs.Blocking.Pos)
	}
	if len(cs.Acquires) > 0 {
		callPos := w.position(pos)
		for id, acq := range cs.Acquires {
			if w.emit {
				for hid, h := range held {
					if hid == id {
						continue
					}
					via := append([]FuncID{callee.ID}, acq.via...)
					w.orderEdge(hid, id, h.display, acq.display, callPos, via)
				}
			}
			if !w.inLit {
				if _, ok := w.sum.Acquires[id]; !ok {
					w.sum.Acquires[id] = acqFact{
						display: acq.display,
						pos:     callPos,
						via:     append([]FuncID{callee.ID}, acq.via...),
					}
				}
			}
		}
	}
	if len(cs.Allocs) > 0 {
		f := cs.Allocs[0]
		w.alloc(pos, f.What+" at "+f.Pos.String(), append([]FuncID{callee.ID}, f.Via...), f.Loop)
	}
}

// walkLit walks a function literal body as its own context: fresh held
// set, fresh loop depth, facts attributed to the enclosing declared
// function but excluded from its blocking/lock summary.
func (w *sumWalker) walkLit(lit *ast.FuncLit) {
	inner := &sumWalker{
		p:       w.p,
		fn:      w.fn,
		emit:    w.emit,
		sum:     w.sum,
		inLit:   true,
		growers: collectGrowers(lit.Body),
	}
	inner.stmts(lit.Body.List, map[string]heldLock{})
}
