package analysis

import (
	"sort"
	"strings"
)

// AllocBudget holds the hot-path roster to a steady-state allocation
// budget. The roster — every function carrying a //lint:hotpath
// directive — names the functions on the invocation and discovery
// paths that the gate benchmarks (BENCH_gate.json) measure; an allocation that creeps into one of
// them is a per-request cost that compounds under load long before a
// benchmark run notices.
//
// The facts come from the interprocedural summaries: fmt.Sprintf-style
// formatting, per-call map literals, make/conversion/closure work
// inside loops, append growth on capacity-less slices, string
// concatenation in loops — each reported at the allocation site with
// the call chain when the cost hides in a callee. Allocations on
// error-handling branches are excluded (failure paths may spend).
// Interface calls that cannot be resolved exactly are reported as
// "may reach" when every name-matched candidate allocates.
var AllocBudget = &Analyzer{
	Name: "allocbudget",
	Doc:  "report steady-state allocations in //lint:hotpath functions",
	Run:  runAllocBudget,
}

func runAllocBudget(pass *Pass) {
	for _, fn := range pass.Proj.FuncsOf(pass.Pkg) {
		if !fn.Hot || isTestFile(pass, fn.File) {
			continue
		}
		for _, f := range fn.Summary.Allocs {
			freq := "per call"
			if f.Loop {
				freq = "per loop iteration"
			}
			pass.ReportPosf(f.Pos, "hot path %s allocates %s: %s%s; preallocate, pool, or hoist it out of the steady state",
				shortFuncID(fn.ID), freq, f.What, viaString(f.Via))
		}
		reportApproxAllocs(pass, fn)
	}
}

// reportApproxAllocs reports interface-dispatch call sites in a hot
// function whose every name-matched candidate implementation
// allocates: the engine cannot prove which implementation runs, but
// when all of them allocate the cost is certain even if the callee is
// not. One report per call site.
func reportApproxAllocs(pass *Pass, fn *FuncInfo) {
	type site struct {
		pos  string
		line int
	}
	byPos := map[site][]CallSite{}
	for _, cs := range fn.callsApprox {
		k := site{pos: cs.Pos.Filename, line: cs.Pos.Line}
		byPos[k] = append(byPos[k], cs)
	}
	keys := make([]site, 0, len(byPos))
	for k := range byPos {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pos != keys[j].pos {
			return keys[i].pos < keys[j].pos
		}
		return keys[i].line < keys[j].line
	})
	for _, k := range keys {
		cands := byPos[k]
		all := true
		names := make([]string, 0, len(cands))
		for _, cs := range cands {
			callee := pass.Proj.Funcs[cs.Callee]
			if callee == nil || callee.Summary == nil || len(callee.Summary.Allocs) == 0 {
				all = false
				break
			}
			names = append(names, string(shortFuncID(cs.Callee)))
		}
		if !all || len(names) == 0 {
			continue
		}
		pass.ReportPosf(cands[0].Pos, "hot path %s may reach %s, every candidate of which allocates; cache the result or move it off the hot path",
			shortFuncID(fn.ID), strings.Join(names, " / "))
	}
}
