package bench

import (
	"strings"
	"testing"
	"time"
)

// Healthy typed results: the reports under test are built by the same
// emission code the experiments use, then doctored.

func healthyOverload(mults ...float64) *Report {
	res := &OverloadResult{BaseRate: 80}
	for _, m := range mults {
		unprot := OverloadPoint{Config: "unprotected", Multiplier: m, Goodput: 80, P99: 30 * time.Millisecond}
		prot := OverloadPoint{Config: "protected", Multiplier: m, Goodput: 80, P99: 30 * time.Millisecond}
		if m > 1 {
			unprot.Goodput, prot.Goodput, prot.P99 = 30, 110, 50*time.Millisecond
		}
		res.Points = append(res.Points, unprot, prot)
	}
	return OverloadReport(&Table{Title: "test"}, res)
}

func healthyFollowers(counts ...int) *Report {
	res := &FollowersResult{Baseline: FollowersPoint{Config: "coordinator", Replicas: 3, Goodput: 100}}
	for _, n := range counts {
		res.Points = append(res.Points, FollowersPoint{
			Config: "followers", Replicas: n, Goodput: float64(100 * n), Spread: n, Checked: int64(400 * n),
		})
		res.Scaling = float64(n)
	}
	return FollowersReport(&Table{Title: "test"}, res)
}

func healthyGossip() *Report {
	res := &GossipResult{SweepAds: 1000, SweepInterval: 25 * time.Millisecond}
	for _, ads := range []int{1000, 10000} {
		res.Points = append(res.Points, GossipPoint{Ads: ads, Shards: 4, Ratio: 11.5, Convergence: 2 * time.Second})
	}
	res.Sweep = []GossipSweepPoint{{Peers: 2, Rounds: 2}, {Peers: 16, Rounds: 5}}
	return GossipReport(&Table{Title: "test"}, res)
}

// TestCheckBounds feeds the one checker doctored reports: every finding
// the three per-experiment gates used to produce still fails, each as
// exactly one finding, and the healthy reports pass.
func TestCheckBounds(t *testing.T) {
	set := func(key string, v float64) func(*Report) {
		return func(r *Report) { r.AddScalar(key, "x", v) }
	}
	overload := func() *Report { return healthyOverload(1, 10) }
	followers := func() *Report { return healthyFollowers(1, 3) }
	tests := []struct {
		name   string
		report func() *Report
		doctor func(*Report)
		want   string // substring of the single finding; "" = passes
	}{
		{"overload-healthy", overload, nil, ""},
		{"overload-shallow-knee", overload, set("unprotected.10x.goodput", 60), "goodput knee"}, // 1.8x
		{"overload-p99-degraded", overload, set("protected.10x.p99", 90e6), "admitted p99"},     // 3x the 1x p99
		{"overload-violation", overload, set("protected.10x.violations", 2), "missed its deadline"},
		{"overload-duplicate", overload, set("unprotected.1x.duplicates", 1), "duplicate execution"},
		{"overload-single-multiplier", func() *Report { return healthyOverload(10) }, nil, "two multipliers"},

		{"followers-healthy", followers, nil, ""},
		{"followers-shallow-scaling", followers, set("scaling", 2), "read goodput scales"},
		{"followers-stale-read", followers, set("followers.3.stale", 2), "no stale read"},
		{"followers-unchecked", followers, set("followers.1.checked", 0), "invariant was exercised"},
		{"followers-spread-1", followers, set("followers.3.spread", 1), "balancer spreads"},
		{"followers-no-points", func() *Report { return healthyFollowers() }, nil, "read goodput scales"},

		{"gossip-healthy", healthyGossip, nil, ""},
		{"gossip-weak-ratio", healthyGossip, set("gossip.10000.ratio", 6), "flood baseline"},
		{"gossip-slow-convergence", healthyGossip, set("gossip.1000.convergence", float64(3*time.Minute)), "livelocked"},
		// 16 peers needing 16 rounds is linear dissemination; the log
		// bound allows 2 × (1 + log2 16) = 10 rounds.
		{"gossip-linear-rounds", healthyGossip, set("sweep.16.rounds", 16), "O(log n)"},
		{"gossip-empty-report", func() *Report { return &Report{Experiment: "gossip"} }, nil, "no bounds"},
		{"bound-names-absent-metric", healthyGossip, func(r *Report) { delete(r.Metrics, "sweep.16.rounds") }, "sweep.16.rounds is not in the report"},
		{"bound-names-absent-reference", overload, func(r *Report) { delete(r.Metrics, "unprotected.10x.goodput") }, "unprotected.10x.goodput is not in the report"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := tt.report()
			if tt.doctor != nil {
				tt.doctor(r)
			}
			findings := r.CheckBounds()
			switch {
			case tt.want == "" && len(findings) != 0:
				t.Fatalf("healthy report failed the gate: %v", findings)
			case tt.want != "" && (len(findings) != 1 || !strings.Contains(findings[0], tt.want)):
				t.Fatalf("want one finding containing %q, got %v", tt.want, findings)
			}
		})
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	path, err := healthyOverload(1, 10).WriteFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Experiment != "overload" {
		t.Fatalf("experiment = %q", loaded.Experiment)
	}
	if findings := loaded.CheckBounds(); len(findings) != 0 {
		t.Fatalf("round-tripped report failed the gate: %v", findings)
	}
	if loaded.Bounds[0].Metric == "" || len(loaded.Bounds) < 8 {
		t.Fatalf("bounds did not survive the round trip: %+v", loaded.Bounds)
	}
}
