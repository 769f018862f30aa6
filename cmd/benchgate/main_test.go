package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"whisper/internal/bench"
)

// writeGossipReport writes a BENCH_gossip.json for a healthy E14 result
// whose 10000-ad point has the given flood/gossip ratio, and returns
// its path.
func writeGossipReport(t *testing.T, ratio float64) string {
	t.Helper()
	res := &bench.GossipResult{
		Points: []bench.GossipPoint{
			{Ads: 1000, Shards: 4, Ratio: 11.5, Convergence: 2 * time.Second},
			{Ads: 10000, Shards: 4, Ratio: ratio, Convergence: 3 * time.Second},
		},
		Sweep: []bench.GossipSweepPoint{{Peers: 2, Rounds: 2}, {Peers: 16, Rounds: 5}},
	}
	path, err := bench.GossipReport(&bench.Table{Title: "test"}, res).WriteFile(t.TempDir())
	if err != nil {
		t.Fatalf("write report: %v", err)
	}
	return path
}

func TestGossipGatePasses(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-report", writeGossipReport(t, 12.1)}, &out); err != nil {
		t.Fatalf("healthy report failed the gate: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "gossip gate passed") {
		t.Errorf("unexpected output: %s", out.String())
	}
}

func TestGossipGateCatchesWeakRatio(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-report", writeGossipReport(t, 4)}, &out); err == nil {
		t.Fatal("weak ratio passed the gate")
	}
	if !strings.Contains(out.String(), "GOSSIP GATE") {
		t.Errorf("finding not printed: %s", out.String())
	}
}

func TestGossipGateMissingReport(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-report", filepath.Join(t.TempDir(), "nope.json")}, &out); err == nil {
		t.Fatal("missing report should fail")
	}
}

// TestCommittedReportsPassTheirBounds holds the three gated reports in
// the repository root to the bounds they carry, so tier-1 notices a
// committed report that no longer passes (or lost its rows).
func TestCommittedReportsPassTheirBounds(t *testing.T) {
	for _, name := range []string{"BENCH_overload.json", "BENCH_followers.json", "BENCH_gossip.json"} {
		var out strings.Builder
		if err := run([]string{"-report", filepath.Join("..", "..", name)}, &out); err != nil {
			t.Errorf("%s: %v\n%s", name, err, out.String())
		}
	}
}
