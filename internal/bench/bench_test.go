package bench

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/simnet"
)

// The experiment smoke tests run each experiment with minimal
// parameters: they verify that the harness produces well-formed
// tables and that the headline *shape* of each result holds (linear
// growth, semantic > syntactic, failover bounded, ...). The full
// parameterizations run via cmd/whisper-bench and the root
// bench_test.go.

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	tab.AddNote("n=%d", 7)
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "333", "note: n=7"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

func TestClusterInvoke(t *testing.T) {
	c, err := NewCluster(context.Background(), ClusterOptions{Peers: 2, Seed: 1, Latency: simnet.ZeroLatency()})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { _ = c.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := c.Invoke(ctx, "S0001")
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if !strings.Contains(string(out), "S0001") {
		t.Errorf("out = %q", out)
	}
}

func TestFigure4Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tab, points, err := Figure4(context.Background(), Figure4Options{
		PeerCounts: []int{2, 4, 6},
		Window:     600 * time.Millisecond,
		Requests:   20,
		Settle:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("figure4: %v", err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Monotone growth in total messages with group size.
	for i := 1; i < len(points); i++ {
		if points[i].Total <= points[i-1].Total {
			t.Errorf("total messages not increasing: %d peers → %d msgs, %d peers → %d msgs",
				points[i-1].Peers, points[i-1].Total, points[i].Peers, points[i].Total)
		}
	}
	// Every protocol family must appear.
	for _, proto := range []string{"heartbeat", "pipe", "gossip"} {
		if points[0].PerProto[proto] == 0 {
			t.Errorf("protocol %s not observed: %v", proto, points[0].PerProto)
		}
	}
	if len(tab.Rows) != 3 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestRTTShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tab, res, err := RTT(context.Background(), RTTOptions{Samples: 40, Peers: 2})
	if err != nil {
		t.Fatalf("rtt: %v", err)
	}
	// The LAN model is calibrated to the paper's ~0.5ms message RTT;
	// allow generous slack for scheduler noise.
	mean := res.Transport.Mean()
	if mean < 300*time.Microsecond || mean > 5*time.Millisecond {
		t.Errorf("transport RTT mean = %v, want ~0.5ms–ish", mean)
	}
	if res.Invocation.Mean() < res.Transport.Mean() {
		t.Errorf("invocation RTT %v should exceed raw message RTT %v",
			res.Invocation.Mean(), res.Transport.Mean())
	}
	if len(tab.Rows) != 2 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
}

func TestFailoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, res, err := Failover(context.Background(), FailoverOptions{Peers: 3, Trials: 1})
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if res.Unavailability.Count() != 1 {
		t.Fatalf("unavailability samples = %d", res.Unavailability.Count())
	}
	// The worst case must dwarf the steady state (paper: sub-ms vs
	// seconds; our timeouts compress "seconds" to hundreds of ms).
	if res.Unavailability.Max() < 10*res.SteadyRTT.Percentile(50) {
		t.Errorf("unavailability %v should dwarf steady-state p50 %v",
			res.Unavailability.Max(), res.SteadyRTT.Percentile(50))
	}
	if res.WorstRTT == 0 {
		t.Error("worst RTT not recorded")
	}
	// A crash is refused evidence; a silent host is judged by the
	// timeouts alone, as in the paper.
	crash, silent := res.DetectElect.Max(), res.SilentDetectElect.Min()
	if silent < benchTimings().HeartbeatTimeout {
		t.Errorf("silent host detected and replaced in %v, before the %v heartbeat timeout", silent, benchTimings().HeartbeatTimeout)
	}
	if 3*crash > silent {
		t.Errorf("crash detected and replaced in %v, want far below the silent host's %v", crash, silent)
	}
}

func TestThroughputShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, points, err := Throughput(context.Background(), FollowersOptions{
		ReplicaCounts: []int{2, 4},
		Clients:       4,
		Window:        500 * time.Millisecond,
		ServiceTime:   2 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("throughput: %v", err)
	}
	byKey := map[string]FollowersPoint{}
	for _, p := range points {
		if p.Goodput <= 0 {
			t.Errorf("%s/%d peers: throughput = %v", p.Config, p.Replicas, p.Goodput)
		}
		if p.Errors > (p.Reads+p.Errors)/10 {
			t.Errorf("%s/%d peers: %d/%d errors", p.Config, p.Replicas, p.Errors, p.Reads+p.Errors)
		}
		if p.Stale != 0 {
			t.Errorf("%s/%d peers: %d stale reads", p.Config, p.Replicas, p.Stale)
		}
		byKey[fmt.Sprintf("%s/%d", p.Config, p.Replicas)] = p
	}
	// Follower reads must scale with replicas while the coordinator
	// stays roughly flat (its one backend worker is the bottleneck).
	t.Logf("at 4 peers: followers %.0f req/s, coordinator %.0f req/s",
		byKey["followers/4"].Goodput, byKey["coordinator/4"].Goodput)
	if byKey["followers/4"].Goodput <= 1.3*byKey["coordinator/4"].Goodput {
		t.Errorf("followers (%.0f req/s) should clearly beat the coordinator (%.0f req/s) at 4 peers",
			byKey["followers/4"].Goodput, byKey["coordinator/4"].Goodput)
	}
}

func TestDiscoveryQualityShape(t *testing.T) {
	tab, err := DiscoveryQuality(context.Background(), DiscoveryOptions{})
	if err != nil {
		t.Fatalf("discovery: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Row cells: matcher, precision, recall, F1, ...
	synF1, semF1 := tab.Rows[0][3], tab.Rows[1][3]
	if !(semF1 > synF1) { // string compare works for "0.xx" forms
		t.Errorf("semantic F1 %s should beat syntactic F1 %s", semF1, synF1)
	}
	if tab.Rows[1][1] != "1.00" || tab.Rows[1][2] != "1.00" {
		t.Errorf("semantic matcher should be perfect on the corpus: %v", tab.Rows[1])
	}
}

func TestBackendFailoverShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, res, err := BackendFailover(context.Background(), BackendFailoverOptions{Requests: 30, OutageAfter: 10})
	if err != nil {
		t.Fatalf("backend failover: %v", err)
	}
	if res.FromDB == 0 || res.FromWH == 0 {
		t.Errorf("expected answers from both stores: db=%d wh=%d", res.FromDB, res.FromWH)
	}
	if res.Failed > 0 {
		t.Errorf("outage leaked %d failures to clients", res.Failed)
	}
	if res.SwitchTime <= 0 || res.SwitchTime > 5*time.Second {
		t.Errorf("switch time = %v", res.SwitchTime)
	}
}

func TestQoSSelectionShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, results, err := QoSSelection(context.Background(), QoSOptions{Requests: 30})
	if err != nil {
		t.Fatalf("qos: %v", err)
	}
	random, aware := results[0], results[1]
	if aware.Latency.Mean() >= random.Latency.Mean() {
		t.Errorf("QoS-aware mean %v should beat random %v",
			aware.Latency.Mean(), random.Latency.Mean())
	}
	if aware.Failed > random.Failed {
		t.Errorf("QoS-aware failures %d should not exceed random %d",
			aware.Failed, random.Failed)
	}
}

func TestElectionCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, points, err := ElectionCost(context.Background(), ElectionOptions{GroupSizes: []int{2, 4, 8}, Trials: 1})
	if err != nil {
		t.Fatalf("election: %v", err)
	}
	for i := 1; i < len(points); i++ {
		if points[i].AvgMessages <= points[i-1].AvgMessages {
			t.Errorf("election messages should grow with peers: %v then %v",
				points[i-1].AvgMessages, points[i].AvgMessages)
		}
	}
	// Super-linear growth (the cascade): messages at 8 peers should
	// exceed 2x messages at 4 peers.
	if points[2].AvgMessages < 2*points[1].AvgMessages {
		t.Errorf("expected super-linear growth: n=4 → %.0f msgs, n=8 → %.0f msgs",
			points[1].AvgMessages, points[2].AvgMessages)
	}
}

func TestDiscoveryQualityLiveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	tab, err := DiscoveryQualityLive(context.Background(), DiscoveryOptions{})
	if err != nil {
		t.Fatalf("live discovery: %v", err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	synF1, semF1 := tab.Rows[0][3], tab.Rows[1][3]
	if !(semF1 > synF1) {
		t.Errorf("live: semantic F1 %s should beat syntactic F1 %s", semF1, synF1)
	}
}

func TestAvailabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("macro experiment")
	}
	_, results, err := Availability(context.Background(), AvailabilityOptions{Requests: 30, CrashAfter: 10, Pacing: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("availability: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	whisperRes, retry, single := results[0], results[1], results[2]
	if whisperRes.Errors != 0 {
		t.Errorf("whisper leaked %d errors", whisperRes.Errors)
	}
	if whisperRes.EndpointsAtClient != 1 {
		t.Errorf("whisper endpoints@client = %d, want 1", whisperRes.EndpointsAtClient)
	}
	if retry.ExtraAttempts == 0 {
		t.Error("client-retry should pay extra attempts after the crash")
	}
	if single.Errors == 0 {
		t.Error("single server should fail during the outage window")
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"a", "b"}}
	tab.AddRow("1", `va"l,ue`)
	tab.AddNote("hello")
	csv := tab.CSV()
	for _, want := range []string{"a,b\n", `1,"va""l,ue"`, "# hello"} {
		if !strings.Contains(csv, want) {
			t.Errorf("csv missing %q:\n%s", want, csv)
		}
	}
}
