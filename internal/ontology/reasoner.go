package ontology

import (
	"sort"
	"sync"
	"sync/atomic"
)

// reasonerVersions mints a unique version per compiled Reasoner, so
// downstream caches (the proxy's lookup memo) can detect an
// ontology change by comparing versions instead of deep-comparing
// ontologies.
var reasonerVersions atomic.Uint64

// Reasoner is an immutable compiled view of an ontology supporting
// subsumption, equivalence, disjointness and similarity queries. It is
// safe for concurrent use.
//
// The compilation handles the usual OWL-lite corner cases:
//
//   - equivalentClass axioms are symmetric and transitive (union-find),
//   - a cycle of subClassOf axioms makes all classes on the cycle
//     equivalent (strongly connected components are merged),
//   - every class is implicitly a subclass of owl:Thing,
//   - disjointness is inherited downward: if A ⊥ B then every subclass
//     of A is disjoint with every subclass of B.
type Reasoner struct {
	onto    *Ontology
	version uint64

	// rep maps class URI to its equivalence-group representative.
	rep map[string]string
	// members maps representative to the URIs in its group.
	members map[string][]string
	// ancestors maps representative to the set of representative
	// ancestors (reflexive: includes itself; always includes Thing).
	ancestors map[string]map[string]bool
	// depth maps representative to its depth below Thing (Thing = 0).
	depth map[string]int
	// disjoint maps representative to directly-declared disjoint reps.
	disjoint map[string]map[string]bool

	// closures memoises MatchingConcepts; it is the only state that
	// changes after compilation.
	closureMu sync.RWMutex
	closures  map[closureKey][]string
}

// NewReasoner compiles an ontology. The ontology must not be mutated
// afterwards (compile a new reasoner if it is).
func NewReasoner(o *Ontology) *Reasoner {
	r := &Reasoner{
		onto:      o,
		version:   reasonerVersions.Add(1),
		rep:       make(map[string]string),
		members:   make(map[string][]string),
		ancestors: make(map[string]map[string]bool),
		depth:     make(map[string]int),
		disjoint:  make(map[string]map[string]bool),
		closures:  make(map[closureKey][]string),
	}
	r.compile()
	return r
}

// Ontology returns the source ontology.
func (r *Reasoner) Ontology() *Ontology { return r.onto }

// Version identifies this compiled reasoner: every NewReasoner call
// yields a distinct version, so two reasoners with equal versions are
// the same object. Caches keyed on (signature, Version) are thereby
// invalidated whenever the ontology is recompiled.
func (r *Reasoner) Version() uint64 { return r.version }

// --- compilation -----------------------------------------------------

type unionFind struct{ parent map[string]string }

func newUnionFind() *unionFind { return &unionFind{parent: make(map[string]string)} }

func (u *unionFind) find(x string) string {
	p, ok := u.parent[x]
	if !ok {
		u.parent[x] = x
		return x
	}
	if p == x {
		return x
	}
	root := u.find(p)
	u.parent[x] = root
	return root
}

func (u *unionFind) union(a, b string) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		// Deterministic representative: lexicographically smallest.
		if rb < ra {
			ra, rb = rb, ra
		}
		u.parent[rb] = ra
	}
}

func (r *Reasoner) compile() {
	uf := newUnionFind()
	uris := make([]string, 0, len(r.onto.classes)+1)
	for uri := range r.onto.classes {
		uris = append(uris, uri)
	}
	uris = append(uris, Thing)
	sort.Strings(uris)
	for _, uri := range uris {
		uf.find(uri)
	}

	// 1. Union equivalence axioms.
	for _, uri := range uris {
		c := r.onto.classes[uri]
		if c == nil {
			continue
		}
		for _, e := range c.EquivalentTo {
			uf.union(uri, e)
		}
	}

	// 2. Collapse subClassOf cycles: iterate SCC merging until fixpoint.
	// Ontologies are tiny (hundreds of classes), so the simple
	// quadratic fixpoint is more than fast enough and far easier to
	// audit than Tarjan over a mutating quotient graph.
	for {
		merged := false
		edges := r.quotientEdges(uf, uris)
		// Detect cycles via DFS on the quotient graph.
		for _, cyc := range findCycles(edges) {
			for i := 1; i < len(cyc); i++ {
				if uf.find(cyc[0]) != uf.find(cyc[i]) {
					uf.union(cyc[0], cyc[i])
					merged = true
				}
			}
		}
		if !merged {
			break
		}
	}

	// 3. Freeze representatives and membership.
	for _, uri := range uris {
		rep := uf.find(uri)
		r.rep[uri] = rep
		r.members[rep] = append(r.members[rep], uri)
	}
	for rep := range r.members {
		sort.Strings(r.members[rep])
	}

	// 4. Ancestor closure over the acyclic quotient graph.
	edges := r.quotientEdges(uf, uris)
	thingRep := r.rep[Thing]
	var ancOf func(rep string) map[string]bool
	visiting := make(map[string]bool)
	ancOf = func(rep string) map[string]bool {
		if a, ok := r.ancestors[rep]; ok {
			return a
		}
		if visiting[rep] {
			// Defensive: cycles were merged above, but never recurse
			// forever if an edge survived.
			return map[string]bool{rep: true}
		}
		visiting[rep] = true
		defer delete(visiting, rep)
		a := map[string]bool{rep: true, thingRep: true}
		for _, super := range edges[rep] {
			for anc := range ancOf(super) {
				a[anc] = true
			}
		}
		r.ancestors[rep] = a
		return a
	}
	for rep := range r.members {
		ancOf(rep)
	}

	// 5. Depth below Thing: longest path from Thing, computed from the
	// ancestor sets (depth = |proper ancestors on the longest chain|).
	// Using longest path makes Wu-Palmer similarity favour specific
	// concepts, matching intuition on deep domain ontologies.
	var depthOf func(rep string) int
	depthMemo := make(map[string]int)
	depthVisiting := make(map[string]bool)
	depthOf = func(rep string) int {
		if d, ok := depthMemo[rep]; ok {
			return d
		}
		if rep == thingRep || depthVisiting[rep] {
			return 0
		}
		depthVisiting[rep] = true
		defer delete(depthVisiting, rep)
		best := 0
		for _, super := range edges[rep] {
			if d := depthOf(super); d > best {
				best = d
			}
		}
		// A class with no declared superclasses sits directly below
		// Thing at depth 1.
		d := best + 1
		depthMemo[rep] = d
		return d
	}
	for rep := range r.members {
		r.depth[rep] = depthOf(rep)
	}
	r.depth[thingRep] = 0

	// 6. Declared disjointness between representatives.
	for _, uri := range uris {
		c := r.onto.classes[uri]
		if c == nil {
			continue
		}
		for _, d := range c.DisjointWith {
			ra, rb := r.rep[uri], r.rep[d]
			if ra == rb {
				continue
			}
			if r.disjoint[ra] == nil {
				r.disjoint[ra] = make(map[string]bool)
			}
			if r.disjoint[rb] == nil {
				r.disjoint[rb] = make(map[string]bool)
			}
			r.disjoint[ra][rb] = true
			r.disjoint[rb][ra] = true
		}
	}
}

// quotientEdges returns superclass edges between representatives.
func (r *Reasoner) quotientEdges(uf *unionFind, uris []string) map[string][]string {
	edges := make(map[string][]string)
	for _, uri := range uris {
		c := r.onto.classes[uri]
		if c == nil {
			continue
		}
		from := uf.find(uri)
		for _, super := range c.SubClassOf {
			to := uf.find(super)
			if from != to {
				edges[from] = appendUnique(edges[from], to)
			}
		}
	}
	for from := range edges {
		sort.Strings(edges[from])
	}
	return edges
}

// findCycles returns one representative cycle per strongly connected
// component with more than one node (or a self-loop).
func findCycles(edges map[string][]string) [][]string {
	// Tarjan's SCC.
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var counter int
	var sccs [][]string

	nodes := make([]string, 0, len(edges))
	seen := make(map[string]bool)
	for from, tos := range edges {
		if !seen[from] {
			nodes = append(nodes, from)
			seen[from] = true
		}
		for _, to := range tos {
			if !seen[to] {
				nodes = append(nodes, to)
				seen[to] = true
			}
		}
	}
	sort.Strings(nodes)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		counter++
		index[v] = counter
		low[v] = counter
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range edges[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			if len(scc) > 1 {
				sccs = append(sccs, scc)
			}
		}
	}
	for _, v := range nodes {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return sccs
}

// --- queries ---------------------------------------------------------

// repOf resolves a URI (short names allowed) to its representative.
// Unknown classes are their own representative, so queries on unknown
// concepts degrade gracefully to identity semantics.
func (r *Reasoner) repOf(uri string) string {
	uri = r.onto.Term(uri)
	if rep, ok := r.rep[uri]; ok {
		return rep
	}
	return uri
}

// Knows reports whether the concept is declared in the ontology.
func (r *Reasoner) Knows(uri string) bool {
	uri = r.onto.Term(uri)
	_, ok := r.rep[uri]
	return ok
}

// AreEquivalent reports whether a and b denote the same concept.
func (r *Reasoner) AreEquivalent(a, b string) bool {
	return r.repOf(a) == r.repOf(b)
}

// IsSubClassOf reports whether sub ⊑ super (reflexive, transitive,
// through equivalence). Every known class is a subclass of owl:Thing.
func (r *Reasoner) IsSubClassOf(sub, super string) bool {
	rs, rp := r.repOf(sub), r.repOf(super)
	if rs == rp {
		return true
	}
	if rp == r.repOf(Thing) && r.Knows(sub) {
		return true
	}
	anc, ok := r.ancestors[rs]
	if !ok {
		return false
	}
	return anc[rp]
}

// AreDisjoint reports whether a and b are disjoint, including
// disjointness inherited from any pair of ancestors.
func (r *Reasoner) AreDisjoint(a, b string) bool {
	ra, rb := r.repOf(a), r.repOf(b)
	if ra == rb {
		return false
	}
	ancA, okA := r.ancestors[ra]
	ancB, okB := r.ancestors[rb]
	if !okA || !okB {
		return false
	}
	for x := range ancA {
		dx := r.disjoint[x]
		if dx == nil {
			continue
		}
		for y := range ancB {
			if dx[y] {
				return true
			}
		}
	}
	return false
}

// Ancestors returns the proper ancestors of the concept (excluding its
// own equivalence group, including Thing), sorted.
func (r *Reasoner) Ancestors(uri string) []string {
	rep := r.repOf(uri)
	anc, ok := r.ancestors[rep]
	if !ok {
		return nil
	}
	out := make([]string, 0, len(anc))
	for a := range anc {
		if a != rep {
			out = append(out, a)
		}
	}
	sort.Strings(out)
	return out
}

// Descendants returns the proper descendants of the concept, sorted.
func (r *Reasoner) Descendants(uri string) []string {
	rep := r.repOf(uri)
	var out []string
	for other, anc := range r.ancestors {
		if other != rep && anc[rep] {
			out = append(out, other)
		}
	}
	sort.Strings(out)
	return out
}

// Depth returns the concept's depth below owl:Thing (Thing = 0).
// Unknown concepts report 0.
func (r *Reasoner) Depth(uri string) int { return r.depth[r.repOf(uri)] }

// LeastCommonAncestor returns the deepest concept that subsumes both a
// and b (owl:Thing in the worst case) and its depth.
func (r *Reasoner) LeastCommonAncestor(a, b string) (string, int) {
	ra, rb := r.repOf(a), r.repOf(b)
	ancA, okA := r.ancestors[ra]
	ancB, okB := r.ancestors[rb]
	if !okA || !okB {
		return Thing, 0
	}
	best, bestDepth := r.repOf(Thing), -1
	for x := range ancA {
		if !ancB[x] {
			continue
		}
		if d := r.depth[x]; d > bestDepth {
			best, bestDepth = x, d
		}
	}
	if bestDepth < 0 {
		return Thing, 0
	}
	return best, bestDepth
}

// Similarity returns the Wu–Palmer similarity in [0,1]:
// 2·depth(LCA) / (depth(a)+depth(b)). Equivalent concepts score 1,
// concepts sharing no ancestor but Thing score 0. Disjoint concepts
// always score 0.
func (r *Reasoner) Similarity(a, b string) float64 {
	if r.AreEquivalent(a, b) {
		if r.Knows(a) || r.onto.Term(a) == r.onto.Term(b) {
			return 1
		}
	}
	if r.AreDisjoint(a, b) {
		return 0
	}
	_, lcaDepth := r.LeastCommonAncestor(a, b)
	da, db := r.Depth(a), r.Depth(b)
	if da+db == 0 {
		return 0
	}
	return 2 * float64(lcaDepth) / float64(da+db)
}
