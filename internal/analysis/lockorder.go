package analysis

import (
	"fmt"
	"sort"
	"strings"
)

// LockOrder reports the two lock defects the summary walk sees, both
// interprocedurally.
//
// A mutex held across a blocking operation: a channel send or
// receive, a select without a default, time.Sleep, a call into the
// blocking messaging layer (Send/Call/Query/Invoke/Propagate), or a
// call to any project function whose summary says it blocks — so a
// channel send reached *through* a helper under a held mutex is caught
// too. This is the defect class behind the Bully-election races:
// a goroutine that parks while holding a lock stalls every other path
// through that lock. Held sets are branch-sensitive, and a deferred
// Unlock keeps the lock held for the rest of the body (`mu.Lock();
// defer mu.Unlock()` followed by a channel send is the bug, not a
// false positive).
//
// A cycle in the global lock-acquisition-order graph — an edge A→B
// whenever some function acquires B while holding A, including
// acquisitions reached through callees. Mutex identity is the struct
// field path keyed by the owning named type ((BPeer).mu is one lock no
// matter which method touches it), so an inversion between, say,
// replog's journal lock and bpeer's state lock is visible even though
// no single function ever holds both orders. A cycle means two
// goroutines can each hold one lock while waiting for the other; the
// report names every edge with the function and position that creates
// it. Fix it by acquiring the locks in one global order (or by
// narrowing one side's critical section).
var LockOrder = &Analyzer{
	Name:       "lockorder",
	Doc:        "report mutexes held across blocking operations and cycles in the global lock-acquisition-order graph (potential deadlocks), interprocedurally",
	Run:        runLockHeld,
	ProjectRun: runLockOrder,
}

// blockingMethods are method names that block on network or pipe
// round-trips in this codebase (p2p pipes, resolvers, peers, SOAP).
var blockingMethods = map[string]bool{
	"Send":      true,
	"Call":      true,
	"Query":     true,
	"Invoke":    true,
	"Propagate": true,
}

func runLockHeld(pass *Pass) {
	for _, fn := range pass.Proj.FuncsOf(pass.Pkg) {
		for _, f := range fn.heldBlocks {
			pass.ReportPosf(f.pos, "%s is held across %s (acquired at %s); release the lock before blocking",
				f.lockDisplay, f.what, f.lockPos)
		}
	}
}

func runLockOrder(pass *Pass) {
	edges := pass.Proj.orderEdges
	// Adjacency over lock IDs, deterministic order. A lock with no
	// outgoing edge is in no cycle, so only sources need be roots.
	adj := map[string][]string{}
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	ids := make([]string, 0, len(adj))
	for id, out := range adj {
		sort.Strings(out)
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, scc := range sccs(ids, func(id string) []string { return adj[id] }) {
		if len(scc) > 1 {
			reportCycle(pass, scc, edges)
		}
	}
}

// reportCycle reports one strongly connected lock set as a deadlock
// candidate, anchored at its earliest edge position so a //lint:allow
// suppression has a stable line to live on.
func reportCycle(pass *Pass, scc []string, edges map[lockEdge]*orderFact) {
	in := map[string]bool{}
	for _, id := range scc {
		in[id] = true
	}
	type evidence struct {
		edge lockEdge
		fact *orderFact
	}
	var evs []evidence
	for e, f := range edges {
		if in[e.from] && in[e.to] {
			evs = append(evs, evidence{edge: e, fact: f})
		}
	}
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i].fact.pos, evs[j].fact.pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return evs[i].edge.from < evs[j].edge.from
	})
	parts := make([]string, 0, len(evs))
	for _, ev := range evs {
		parts = append(parts, fmt.Sprintf("%s → %s (in %s at %s%s)",
			shortLockID(ev.edge.from), shortLockID(ev.edge.to),
			shortFuncID(ev.fact.fn), ev.fact.pos, viaString(ev.fact.via)))
	}
	pass.ReportPosf(evs[0].fact.pos,
		"lock-order cycle (potential deadlock): %s; acquire these locks in one global order",
		strings.Join(parts, "; "))
}

// shortLockID drops the package path from a canonical lock ID.
func shortLockID(id string) string {
	if i := strings.Index(id, ".("); i >= 0 {
		return id[i+1:]
	}
	if i := strings.LastIndexByte(id, '/'); i >= 0 {
		id = id[i+1:]
	}
	return id
}
