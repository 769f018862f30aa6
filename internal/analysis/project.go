package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// FuncID names one declared function or method project-wide:
// "pkg/path.Func" for functions, "pkg/path.(Recv).Method" for methods
// (pointer receivers are normalized to the bare type name).
type FuncID string

// typeRef names a package-local named type, resolved syntactically.
// The zero value means "unknown"; the engine never guesses.
type typeRef struct {
	pkg  *Package
	name string
}

func (t typeRef) known() bool { return t.pkg != nil && t.name != "" }

// CallSite is one resolved project-internal call edge.
type CallSite struct {
	// Callee is the resolved target.
	Callee FuncID
	// Pos locates the call (or method-value reference) in the caller.
	Pos token.Position
}

// FuncInfo is one declared function or method plus everything the
// interprocedural layer derived about it.
type FuncInfo struct {
	// ID is the project-wide identity.
	ID FuncID
	// Name is the bare function or method name.
	Name string
	// Recv is the bare receiver type name ("" for plain functions).
	Recv string
	// Pkg owns the declaration.
	Pkg *Package
	// File holds the declaration.
	File *ast.File
	// Decl is the parsed declaration (Body non-nil).
	Decl *ast.FuncDecl
	// Hot marks the function as on the allocation-budget roster: it
	// carries a //lint:hotpath directive.
	Hot bool
	// Calls are the resolved call edges (exact resolutions only).
	Calls []CallSite
	// callsApprox are name-matched interface-method edges; only the
	// allocation propagation consumes them (a wrong match there costs a
	// suppressible diagnostic, not a false deadlock report).
	callsApprox []CallSite
	// Summary is the bottom-up interprocedural summary; nil until
	// computeSummaries runs.
	Summary *Summary
	// heldBlocks are the blocking-under-lock facts lockorder reports.
	heldBlocks []heldBlockFact

	imports map[string]string
	env     map[string]typeRef // receiver/param/local name -> type
}

type sentinelKind int

const (
	sentinelError  sentinelKind = iota + 1 // var ErrX = errors.New(...)
	sentinelString                         // const ErrMsgX = "..." (wire string)
)

// Project is a set of packages loaded and analyzed together. It owns
// the call graph, the per-function summaries and the sentinel index —
// everything analyzers reach through Pass.Proj.
//
// Everything is syntactic: receiver types are resolved from declared
// parameter/receiver/var types, composite literals and project
// constructor results; calls through interfaces, function values and
// shadowed names stay unresolved and simply contribute no edges (see
// DESIGN.md for the soundness discussion).
type Project struct {
	// Packages are the loaded packages, in load order.
	Packages []*Package

	// Funcs indexes every declared function and method.
	Funcs map[FuncID]*FuncInfo

	byPkg     map[*Package][]*FuncInfo
	pkgByPath map[string]*Package

	funcIndex     map[*Package]map[string]*FuncInfo
	methodIndex   map[*Package]map[string]map[string]*FuncInfo
	methodsByName map[string][]*FuncInfo
	structFields  map[*Package]map[string]map[string]ast.Expr
	consts        map[*Package]map[string]bool // package-level const names

	// sentinels maps "pkgpath.Name" to the sentinel kind for every
	// top-level Err*/ErrMsg* declaration in the project.
	sentinels map[string]sentinelKind

	// orderEdges is the global lock-acquisition-order graph.
	orderEdges map[lockEdge]*orderFact
}

// NewProject indexes the packages, resolves the call graph and
// computes the interprocedural summaries bottom-up over SCCs.
func NewProject(pkgs ...*Package) *Project {
	p := &Project{
		Packages:      pkgs,
		Funcs:         map[FuncID]*FuncInfo{},
		byPkg:         map[*Package][]*FuncInfo{},
		pkgByPath:     map[string]*Package{},
		funcIndex:     map[*Package]map[string]*FuncInfo{},
		methodIndex:   map[*Package]map[string]map[string]*FuncInfo{},
		methodsByName: map[string][]*FuncInfo{},
		structFields:  map[*Package]map[string]map[string]ast.Expr{},
		consts:        map[*Package]map[string]bool{},
		sentinels:     map[string]sentinelKind{},
		orderEdges:    map[lockEdge]*orderFact{},
	}
	p.index()
	p.buildEnvs()
	p.buildCallGraph()
	p.computeSummaries()
	return p
}

// FuncsOf returns the declared functions of one package, in source
// order.
func (p *Project) FuncsOf(pkg *Package) []*FuncInfo { return p.byPkg[pkg] }

// SentinelKindOf reports the sentinel kind of "pkgpath.Name", or 0.
func (p *Project) sentinelKindOf(pkgPath, name string) sentinelKind {
	return p.sentinels[pkgPath+"."+name]
}

// index populates the function, method, struct-field, const and
// sentinel indexes from every package's declarations.
func (p *Project) index() {
	for _, pkg := range p.Packages {
		p.pkgByPath[pkg.ImportPath] = pkg
		p.funcIndex[pkg] = map[string]*FuncInfo{}
		p.methodIndex[pkg] = map[string]map[string]*FuncInfo{}
		p.structFields[pkg] = map[string]map[string]ast.Expr{}
		p.consts[pkg] = map[string]bool{}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					p.indexFunc(pkg, f, d)
				case *ast.GenDecl:
					p.indexGen(pkg, d)
				}
			}
		}
	}
}

func (p *Project) indexFunc(pkg *Package, file *ast.File, d *ast.FuncDecl) {
	if d.Body == nil {
		return
	}
	recv := recvTypeName(d)
	id := funcID(pkg.ImportPath, recv, d.Name.Name)
	fn := &FuncInfo{
		ID:      id,
		Name:    d.Name.Name,
		Recv:    recv,
		Pkg:     pkg,
		File:    file,
		Decl:    d,
		imports: fileImports(file),
		Hot:     hasHotpathDirective(pkg.Fset, file, d),
	}
	p.Funcs[id] = fn
	p.byPkg[pkg] = append(p.byPkg[pkg], fn)
	if recv == "" {
		p.funcIndex[pkg][d.Name.Name] = fn
	} else {
		byName := p.methodIndex[pkg][recv]
		if byName == nil {
			byName = map[string]*FuncInfo{}
			p.methodIndex[pkg][recv] = byName
		}
		byName[d.Name.Name] = fn
		p.methodsByName[d.Name.Name] = append(p.methodsByName[d.Name.Name], fn)
	}
}

func (p *Project) indexGen(pkg *Package, d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if st, ok := s.Type.(*ast.StructType); ok {
				fields := map[string]ast.Expr{}
				for _, f := range st.Fields.List {
					for _, name := range f.Names {
						fields[name.Name] = f.Type
					}
				}
				p.structFields[pkg][s.Name.Name] = fields
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if d.Tok == token.CONST {
					p.consts[pkg][name.Name] = true
				}
				if !strings.HasPrefix(name.Name, "Err") {
					continue
				}
				key := pkg.ImportPath + "." + name.Name
				if strings.HasPrefix(name.Name, "ErrMsg") {
					p.sentinels[key] = sentinelString
					continue
				}
				if i < len(s.Values) {
					if call, ok := s.Values[i].(*ast.CallExpr); ok {
						if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
							if x, ok := sel.X.(*ast.Ident); ok &&
								(x.Name == "errors" && sel.Sel.Name == "New" || x.Name == "fmt" && sel.Sel.Name == "Errorf") {
								p.sentinels[key] = sentinelError
							}
						}
					}
				}
			}
		}
	}
}

// hasHotpathDirective reports whether a //lint:hotpath comment is in
// the declaration's doc comment or trails its signature (on or before
// the line of the opening brace).
func hasHotpathDirective(fset *token.FileSet, file *ast.File, d *ast.FuncDecl) bool {
	brace := fset.Position(d.Body.Lbrace).Line
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, "//lint:hotpath") &&
				(cg == d.Doc || c.Pos() > d.Pos() && fset.Position(c.Pos()).Line <= brace) {
				return true
			}
		}
	}
	return false
}

func funcID(pkgPath, recv, name string) FuncID {
	if recv == "" {
		return FuncID(pkgPath + "." + name)
	}
	return FuncID(pkgPath + ".(" + recv + ")." + name)
}

// recvTypeName returns the bare receiver type name of a method
// declaration ("" for functions): *BPeer and BPeer both yield "BPeer".
func recvTypeName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// --- type environment -------------------------------------------------

// buildEnvs resolves, per function, the named types of its receiver,
// parameters and first-bound locals. Two passes so a local bound from
// another function's result type resolves regardless of declaration
// order.
func (p *Project) buildEnvs() {
	for pass := 0; pass < 2; pass++ {
		for _, fn := range p.Funcs {
			p.buildEnv(fn)
		}
	}
}

func (p *Project) buildEnv(fn *FuncInfo) {
	env := map[string]typeRef{}
	if fn.Decl.Recv != nil && len(fn.Decl.Recv.List) > 0 {
		for _, name := range fn.Decl.Recv.List[0].Names {
			env[name.Name] = typeRef{pkg: fn.Pkg, name: fn.Recv}
		}
	}
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			t := p.resolveTypeExpr(fn, field.Type)
			for _, name := range field.Names {
				if _, seen := env[name.Name]; !seen && t.known() {
					env[name.Name] = t
				}
			}
		}
	}
	addFields(fn.Decl.Type.Params)
	addFields(fn.Decl.Type.Results)

	// First-binding-wins locals: var decls with explicit types,
	// := bindings from composite literals and resolvable calls.
	ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.DeclStmt:
			if gd, ok := s.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok && vs.Type != nil {
						t := p.resolveTypeExpr(fn, vs.Type)
						for _, name := range vs.Names {
							if _, seen := env[name.Name]; !seen && t.known() {
								env[name.Name] = t
							}
						}
					}
				}
			}
		case *ast.AssignStmt:
			if len(s.Lhs) != len(s.Rhs) {
				return true
			}
			for i, lhs := range s.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if _, seen := env[id.Name]; seen {
					continue
				}
				fn.env = env // valueType may consult the partial env
				if t := p.valueType(fn, s.Rhs[i]); t.known() {
					env[id.Name] = t
				}
			}
		}
		return true
	})
	fn.env = env
}

// resolveTypeExpr resolves a syntactic type expression to a named
// project type: T, *T, pkg.T, *pkg.T.
func (p *Project) resolveTypeExpr(fn *FuncInfo, t ast.Expr) typeRef {
	for {
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
			continue
		}
		break
	}
	switch t := t.(type) {
	case *ast.Ident:
		return typeRef{pkg: fn.Pkg, name: t.Name}
	case *ast.SelectorExpr:
		if x, ok := t.X.(*ast.Ident); ok {
			if path, isImport := fn.imports[x.Name]; isImport {
				if pkg := p.pkgByPath[path]; pkg != nil {
					return typeRef{pkg: pkg, name: t.Sel.Name}
				}
			}
		}
	}
	return typeRef{}
}

// valueType resolves the type a value expression produces: composite
// literals, address-of literals, and calls whose callee resolves to a
// project function with a syntactic first result type.
func (p *Project) valueType(fn *FuncInfo, e ast.Expr) typeRef {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return p.valueType(fn, e.X)
		}
	case *ast.CompositeLit:
		if e.Type != nil {
			return p.resolveTypeExpr(fn, e.Type)
		}
	case *ast.CallExpr:
		if callee := p.resolveCall(fn, e); callee != nil {
			res := callee.Decl.Type.Results
			if res != nil && len(res.List) > 0 {
				return p.resolveTypeExpr(callee, res.List[0].Type)
			}
		}
	}
	return typeRef{}
}

// exprType resolves the named type of an expression inside fn's body:
// identifiers via the env, field selectors via the struct index,
// address-of and resolvable calls.
func (p *Project) exprType(fn *FuncInfo, e ast.Expr) typeRef {
	switch e := e.(type) {
	case *ast.Ident:
		return fn.env[e.Name]
	case *ast.SelectorExpr:
		base := p.exprType(fn, e.X)
		if !base.known() {
			return typeRef{}
		}
		fields := p.structFields[base.pkg][base.name]
		if ft, ok := fields[e.Sel.Name]; ok {
			owner := &FuncInfo{Pkg: base.pkg, imports: fileImportsOfType(base.pkg, base.name)}
			return p.resolveTypeExpr(owner, ft)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return p.exprType(fn, e.X)
		}
	case *ast.ParenExpr:
		return p.exprType(fn, e.X)
	case *ast.CallExpr:
		return p.valueType(fn, e)
	}
	return typeRef{}
}

// fileImportsOfType finds the imports of the file declaring the named
// type, so its field type expressions resolve in the right scope.
func fileImportsOfType(pkg *Package, name string) map[string]string {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == name {
					return fileImports(f)
				}
			}
		}
	}
	return map[string]string{}
}

// --- call graph -------------------------------------------------------

// resolveCall resolves one call expression to a project function, or
// nil. Only exact resolutions: same-package functions, imported
// project-package functions, and methods whose receiver type is known.
func (p *Project) resolveCall(fn *FuncInfo, call *ast.CallExpr) *FuncInfo {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return p.funcIndex[fn.Pkg][f.Name]
	case *ast.SelectorExpr:
		return p.resolveSelector(fn, f)
	case *ast.ParenExpr:
		if sel, ok := f.X.(*ast.SelectorExpr); ok {
			return p.resolveSelector(fn, sel)
		}
	}
	return nil
}

// resolveSelector resolves pkg.Func or recv.Method references.
func (p *Project) resolveSelector(fn *FuncInfo, sel *ast.SelectorExpr) *FuncInfo {
	if x, ok := sel.X.(*ast.Ident); ok {
		if path, isImport := fn.imports[x.Name]; isImport {
			if pkg := p.pkgByPath[path]; pkg != nil {
				return p.funcIndex[pkg][sel.Sel.Name]
			}
			return nil
		}
	}
	recv := p.exprType(fn, sel.X)
	if !recv.known() {
		return nil
	}
	return p.methodIndex[recv.pkg][recv.name][sel.Sel.Name]
}

// buildCallGraph resolves every call (and method-value reference) in
// every function body into Calls, plus the name-matched approximate
// edges for allocation propagation.
func (p *Project) buildCallGraph() {
	for _, fn := range p.Funcs {
		funs := map[ast.Expr]bool{} // expressions in call-operator position
		ast.Inspect(fn.Decl, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				funs[call.Fun] = true
			}
			return true
		})
		ast.Inspect(fn.Decl, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if callee := p.resolveCall(fn, n); callee != nil {
					fn.Calls = append(fn.Calls, CallSite{Callee: callee.ID, Pos: fn.Pkg.Fset.Position(n.Pos())})
				} else if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					p.addApprox(fn, sel, n.Pos())
				}
			case *ast.SelectorExpr:
				// Method value (go b.run, handler registration): an edge
				// without a call operator.
				if funs[ast.Expr(n)] {
					return true
				}
				if callee := p.resolveSelector(fn, n); callee != nil {
					fn.Calls = append(fn.Calls, CallSite{Callee: callee.ID, Pos: fn.Pkg.Fset.Position(n.Pos())})
					return false
				}
			}
			return true
		})
	}
}

// addApprox records name-matched candidate edges for a method call
// whose receiver type is unknown (interface dispatch). Capped and
// deduplicated; consumers treat these as "may reach".
func (p *Project) addApprox(fn *FuncInfo, sel *ast.SelectorExpr, pos token.Pos) {
	if _, isPkg := fn.imports[exprString(sel.X)]; isPkg {
		return
	}
	cands := p.methodsByName[sel.Sel.Name]
	if len(cands) == 0 || len(cands) > 8 {
		return // absent or too common to mean anything
	}
	position := fn.Pkg.Fset.Position(pos)
	for _, c := range cands {
		fn.callsApprox = append(fn.callsApprox, CallSite{Callee: c.ID, Pos: position})
	}
}

// --- SCC ordering -----------------------------------------------------

// sccOrder returns the strongly connected components of the call graph
// in reverse topological order (callees before callers).
func (p *Project) sccOrder() [][]*FuncInfo {
	fns := make([]*FuncInfo, 0, len(p.Funcs))
	for _, fn := range p.Funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].ID < fns[j].ID })
	return sccs(fns, func(fn *FuncInfo) []*FuncInfo {
		callees := make([]*FuncInfo, len(fn.Calls))
		for i, c := range fn.Calls {
			callees[i] = p.Funcs[c.Callee]
		}
		return callees
	})
}

// sccs returns the strongly connected components of the graph reached
// from roots, each after every component it reaches (reverse
// topological order): Tarjan's algorithm, iterative. succ is asked once
// per node; roots and succ fix the visiting order, so the output is
// deterministic when they are.
func sccs[T comparable](roots []T, succ func(T) []T) [][]T {
	type frame struct {
		node T
		out  []T // successors not yet visited from this frame
	}
	index, low := map[T]int{}, map[T]int{}
	onStack := map[T]bool{}
	var stack []T
	var frames []frame
	var out [][]T
	push := func(n T) {
		i := len(index)
		index[n], low[n] = i, i
		stack = append(stack, n)
		onStack[n] = true
		frames = append(frames, frame{node: n, out: succ(n)})
	}
	for _, root := range roots {
		if _, seen := index[root]; seen {
			continue
		}
		push(root)
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.out) > 0 {
				to := f.out[0]
				f.out = f.out[1:]
				if _, seen := index[to]; !seen {
					push(to)
				} else if onStack[to] {
					low[f.node] = min(low[f.node], index[to])
				}
				continue
			}
			// Post-order: pop the frame, maybe emit a component.
			done := f.node
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				parent := frames[len(frames)-1].node
				low[parent] = min(low[parent], low[done])
			}
			if low[done] == index[done] {
				var scc []T
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == done {
						break
					}
				}
				out = append(out, scc)
			}
		}
	}
	return out
}
