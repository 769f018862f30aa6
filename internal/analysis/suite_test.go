package analysis

import (
	"path/filepath"
	"testing"
)

// td resolves a golden-package directory under testdata/src.
func td(name string) string {
	return filepath.Join("testdata", "src", name)
}

// The import paths passed here stand in for the real packages the
// scoped analyzers guard; go tooling never builds testdata, so the
// deliberate violations are inert.

func TestLockHeldGolden(t *testing.T) {
	RunGolden(t, LockOrder, "whisper/internal/election", td("lockheld"))
}

func TestCtxFlowGolden(t *testing.T) {
	RunGolden(t, CtxFlow, "whisper/internal/p2p", td("ctxflow"))
}

func TestCtxFlowCmdGolden(t *testing.T) {
	// Under cmd/ a fresh root context is legitimate: zero diagnostics.
	RunGolden(t, CtxFlow, "whisper/cmd/whisperlint", td("ctxflow_cmd"))
}

func TestSpanEndGolden(t *testing.T) {
	RunGolden(t, SpanEnd, "whisper/internal/proxy", td("spanend"))
}

func TestSpanEndReplogGolden(t *testing.T) {
	// The journal's serving patterns (reply closures, per-branch
	// EndWith, deferred catch-up spans) are clean without escapes:
	// zero diagnostics.
	RunGolden(t, SpanEnd, "whisper/internal/replog", td("replog"))
}

func TestCtxFlowReplogGolden(t *testing.T) {
	// Same package under ctxflow: ctx-first plumbing, no detached
	// roots, blocking confined to ctx-aware helpers.
	RunGolden(t, CtxFlow, "whisper/internal/replog", td("replog"))
}

func TestDetRandGolden(t *testing.T) {
	RunGolden(t, DetRand, "whisper/internal/chaos", td("detrand"))
}

func TestDetRandUnscopedGolden(t *testing.T) {
	// Outside the deterministic engines the wall clock is fine.
	RunGolden(t, DetRand, "whisper/internal/proxy", td("detrand_unscoped"))
}

func TestDetRandLoadctlGolden(t *testing.T) {
	// The admission pipeline is detrand-scoped: its injected-clock and
	// timer idioms must read clean — zero diagnostics.
	RunGolden(t, DetRand, "whisper/internal/loadctl", td("loadctl_clean"))
}

func TestCtxFlowLoadctlGolden(t *testing.T) {
	RunGolden(t, CtxFlow, "whisper/internal/loadctl", td("loadctl_clean"))
}

func TestDetRandLoadgenGolden(t *testing.T) {
	// The generator's seeded rand.Rand (and the allowlisted
	// rand.NewZipf constructor) are the sanctioned randomness.
	RunGolden(t, DetRand, "whisper/internal/loadgen", td("loadgen_clean"))
}

func TestCtxFlowLoadgenGolden(t *testing.T) {
	RunGolden(t, CtxFlow, "whisper/internal/loadgen", td("loadgen_clean"))
}

func TestLockOrderGolden(t *testing.T) {
	RunGolden(t, LockOrder, "whisper/internal/bpeer", td("lockorder"))
}

func TestLockHeldInterprocGolden(t *testing.T) {
	// Blocking primitives reached through callees: the PR 4
	// intraprocedural engine saw none of these.
	RunGolden(t, LockOrder, "whisper/internal/election", td("lockheld_interproc"))
}

func TestErrIdentGolden(t *testing.T) {
	RunGolden(t, ErrIdent, "whisper/internal/proxy", td("errident"))
}

func TestAllocBudgetGolden(t *testing.T) {
	RunGolden(t, AllocBudget, "whisper/internal/hotfix", td("allocbudget"))
}

func TestReplicasCleanGolden(t *testing.T) {
	// The replica-policy idioms (snapshot under lock, network call
	// outside the critical section, cancellable backoff) must read clean
	// under the whole suite.
	for _, a := range All() {
		RunGolden(t, a, "whisper/internal/proxy", td("replicas_clean"))
	}
}

func TestGossipCleanGolden(t *testing.T) {
	// The gossip engine idioms (seeded jitter, injected clock,
	// stop-channel rounds, append-into-dst roster hot paths) under the
	// whole suite — the package is detrand-scoped and carries hot
	// paths, so these are live true negatives.
	for _, a := range All() {
		RunGolden(t, a, "whisper/internal/gossip", td("gossip_clean"))
	}
}

func TestLoadctlFullSuiteGolden(t *testing.T) {
	// The admission pipeline stays clean under the interprocedural
	// analyzers, not just its original two.
	for _, a := range []*Analyzer{LockOrder, ErrIdent, AllocBudget} {
		RunGolden(t, a, "whisper/internal/loadctl", td("loadctl_clean"))
	}
}

func TestLoadgenFullSuiteGolden(t *testing.T) {
	for _, a := range []*Analyzer{LockOrder, ErrIdent, AllocBudget} {
		RunGolden(t, a, "whisper/internal/loadgen", td("loadgen_clean"))
	}
}

func TestReplogFullSuiteGolden(t *testing.T) {
	// The journal read path (leases, read-index barrier) under the new
	// analyzers.
	for _, a := range []*Analyzer{LockOrder, ErrIdent, AllocBudget} {
		RunGolden(t, a, "whisper/internal/replog", td("replog"))
	}
}
