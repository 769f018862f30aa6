// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md §4 for the experiment index and
// EXPERIMENTS.md for paper-vs-measured values). The benchmarks report
// the experiment's headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every row; the full
// pretty-printed tables come from `go run ./cmd/whisper-bench`.
package whisper_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"whisper/internal/bench"
	"whisper/internal/simnet"
)

// BenchmarkFigure4MessagesVsPeers regenerates Figure 4: messages
// exchanged as the number of b-peers increases (experiment E1).
func BenchmarkFigure4MessagesVsPeers(b *testing.B) {
	for _, peers := range []int{2, 4, 6, 9} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var total, bytes float64
			for i := 0; i < b.N; i++ {
				_, points, err := bench.Figure4(context.Background(), bench.Figure4Options{
					PeerCounts: []int{peers},
					Window:     800 * time.Millisecond,
					Requests:   25,
					Settle:     200 * time.Millisecond,
					Seed:       int64(i + 1),
				})
				if err != nil {
					b.Fatalf("figure4: %v", err)
				}
				total += float64(points[0].Total)
				bytes += float64(points[0].Bytes)
			}
			b.ReportMetric(total/float64(b.N), "msgs/window")
			b.ReportMetric(bytes/float64(b.N), "bytes/window")
		})
	}
}

// BenchmarkRTTSteadyState regenerates the §5 steady-state RTT
// measurement (experiment E2): the paper reports ~0.5 ms average
// message RTT on its 100 Mbit/s LAN.
func BenchmarkRTTSteadyState(b *testing.B) {
	c, err := bench.NewCluster(context.Background(), bench.ClusterOptions{Peers: 3, Seed: 1})
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			b.Fatalf("invoke: %v", err)
		}
	}
}

// BenchmarkRTTTransportPingPong isolates the raw message RTT the
// paper's monitor timestamps (the ~0.5 ms figure itself).
func BenchmarkRTTTransportPingPong(b *testing.B) {
	_, res, err := bench.RTT(context.Background(), bench.RTTOptions{Samples: max(b.N, 10), Peers: 2})
	if err != nil {
		b.Fatalf("rtt: %v", err)
	}
	b.ReportMetric(float64(res.Transport.Mean().Microseconds()), "µs/rtt-mean")
	b.ReportMetric(float64(res.Transport.Percentile(99).Microseconds()), "µs/rtt-p99")
}

// BenchmarkFailoverWorstCase regenerates the §5 worst-case RTT
// analysis (experiment E3): coordinator crash → failure detection →
// Bully election → proxy re-binding.
func BenchmarkFailoverWorstCase(b *testing.B) {
	var detectElect, unavailable, worst float64
	for i := 0; i < b.N; i++ {
		_, res, err := bench.Failover(context.Background(), bench.FailoverOptions{Peers: 4, Trials: 1, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("failover: %v", err)
		}
		detectElect += float64(res.DetectElect.Mean().Milliseconds())
		unavailable += float64(res.Unavailability.Mean().Milliseconds())
		worst += float64(res.WorstRTT.Milliseconds())
	}
	n := float64(b.N)
	b.ReportMetric(detectElect/n, "ms/detect+elect")
	b.ReportMetric(unavailable/n, "ms/unavailability")
	b.ReportMetric(worst/n, "ms/worst-rtt")
}

// BenchmarkThroughputScaling regenerates the §5 scalability claim
// (experiment E4): read throughput as the group grows, served by the
// coordinator and by follower reads.
func BenchmarkThroughputScaling(b *testing.B) {
	for _, peers := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("peers=%d", peers), func(b *testing.B) {
			var coordinator, followers float64
			for i := 0; i < b.N; i++ {
				_, points, err := bench.Throughput(context.Background(), bench.FollowersOptions{
					ReplicaCounts: []int{peers},
					Clients:       4,
					Window:        800 * time.Millisecond,
					Seed:          int64(i + 1),
				})
				if err != nil {
					b.Fatalf("throughput: %v", err)
				}
				// Throughput returns one point per configuration:
				// coordinator first, then followers.
				coordinator += points[0].Goodput
				followers += points[1].Goodput
			}
			b.ReportMetric(coordinator/float64(b.N), "req/s-coordinated")
			b.ReportMetric(followers/float64(b.N), "req/s-followers")
		})
	}
}

// BenchmarkDiscoveryPrecisionRecall regenerates experiment E5:
// semantic vs. syntactic discovery quality (§3.1/§4.3 claims).
func BenchmarkDiscoveryPrecisionRecall(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.DiscoveryQuality(context.Background(), bench.DiscoveryOptions{}); err != nil {
			b.Fatalf("discovery: %v", err)
		}
	}
}

// BenchmarkDiscoveryPrecisionRecallLive runs E5 through the live
// system: corpus groups deployed on the overlay, discovered via the
// SWS-proxy's semantic and syntactic paths.
func BenchmarkDiscoveryPrecisionRecallLive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.DiscoveryQualityLive(context.Background(), bench.DiscoveryOptions{}); err != nil {
			b.Fatalf("live discovery: %v", err)
		}
	}
}

// BenchmarkBackendFailover regenerates experiment E6 (§4.1 scenario):
// operational DB outage transparently served by the data warehouse.
func BenchmarkBackendFailover(b *testing.B) {
	var switchMS float64
	for i := 0; i < b.N; i++ {
		_, res, err := bench.BackendFailover(context.Background(), bench.BackendFailoverOptions{
			Requests: 30, OutageAfter: 10, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatalf("backend failover: %v", err)
		}
		if res.Failed > 0 {
			b.Fatalf("%d requests failed during outage", res.Failed)
		}
		switchMS += float64(res.SwitchTime.Milliseconds())
	}
	b.ReportMetric(switchMS/float64(b.N), "ms/db-to-warehouse")
}

// BenchmarkQoSSelection regenerates experiment E7 (§2.4): QoS-aware
// selection vs. a semantics-only random baseline.
func BenchmarkQoSSelection(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		_, results, err := bench.QoSSelection(context.Background(), bench.QoSOptions{Requests: 30, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("qos: %v", err)
		}
		random, aware := results[0], results[1]
		gain += float64(random.Latency.Mean()) / float64(aware.Latency.Mean())
	}
	b.ReportMetric(gain/float64(b.N), "x-latency-gain")
}

// BenchmarkAvailabilityComparison regenerates experiment E9: Whisper
// vs. WS-FTM-style client retry vs. no replication under a crash.
func BenchmarkAvailabilityComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, results, err := bench.Availability(context.Background(), bench.AvailabilityOptions{
			Requests: 30, CrashAfter: 10, Pacing: 2 * time.Millisecond, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatalf("availability: %v", err)
		}
		if results[0].Errors != 0 {
			b.Fatalf("whisper leaked %d errors", results[0].Errors)
		}
	}
}

// BenchmarkBullyElection regenerates experiment E8: election message
// count and convergence time vs. group size — the component behind
// the paper's "time needed to elect a new coordinator is considerably
// high".
func BenchmarkBullyElection(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("peers=%d", n), func(b *testing.B) {
			var msgs, converge float64
			for i := 0; i < b.N; i++ {
				_, points, err := bench.ElectionCost(context.Background(), bench.ElectionOptions{
					GroupSizes: []int{n}, Trials: 1, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatalf("election: %v", err)
				}
				msgs += points[0].AvgMessages
				converge += float64(points[0].AvgConverge.Milliseconds())
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/election")
			b.ReportMetric(converge/float64(b.N), "ms/convergence")
		})
	}
}

// BenchmarkInvokeZeroLatency measures the pure software overhead of
// the full semantic invocation path (discovery cache hit + binding
// cache hit + pipe round trip + backend) with network latency removed.
func BenchmarkInvokeZeroLatency(b *testing.B) {
	c, err := bench.NewCluster(context.Background(), bench.ClusterOptions{
		Peers: 3, Seed: 1, Latency: simnet.ZeroLatency(),
	})
	if err != nil {
		b.Fatalf("cluster: %v", err)
	}
	defer func() { _ = c.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	if _, err := c.Invoke(ctx, c.StudentID(0)); err != nil {
		b.Fatalf("warm-up: %v", err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Invoke(ctx, c.StudentID(i)); err != nil {
			b.Fatalf("invoke: %v", err)
		}
	}
}
