package bench

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"whisper/internal/chaos"
	"whisper/internal/core"
	"whisper/internal/gossip"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// TestGossipExperiment runs a scaled-down E14 and holds it to the real
// acceptance bounds: the epidemic must beat the flood baseline ≥10× on
// messages and the convergence sweep must be sublinear in fleet size.
func TestGossipExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment skipped in -short mode")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	table, result, err := Gossip(ctx, GossipOptions{
		AdCounts:   []int{1000, 2000},
		PeerCounts: []int{2, 4, 8},
		SweepAds:   400,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("gossip experiment: %v", err)
	}
	if len(result.Points) != 2 || len(result.Sweep) != 3 {
		t.Fatalf("points = %d, sweep = %d", len(result.Points), len(result.Sweep))
	}
	for _, p := range result.Points {
		if p.GossipMsgs == 0 {
			t.Errorf("%d ads: no gossip traffic measured", p.Ads)
		}
	}
	if findings := GossipReport(table, result).CheckBounds(); len(findings) > 0 {
		t.Errorf("gate findings on a healthy run:\n  %s\n%s",
			strings.Join(findings, "\n  "), table.String())
	}
}

// TestGossipSoak drives a sharded deployment through shard crashes,
// restarts and network partitions while publishing and tombstoning
// advertisements, then checks the dissemination invariants: every
// surviving advertisement became visible on all live shards within the
// convergence bound, and no tombstoned advertisement ever resurrected.
// The fault sequence is deterministic per seed (CHAOS_SEEDS selects
// the sweep).
func TestGossipSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("gossip soak skipped in -short mode")
	}
	for _, seed := range chaosSoakSeeds(t) {
		seed := seed
		t.Run("seed="+strconv.FormatInt(seed, 10), func(t *testing.T) {
			// The ring of one is the same plane with nothing to crash
			// or partition: the invariants must hold there too.
			for _, shards := range []int{1, 4} {
				t.Run("shards="+strconv.Itoa(shards), func(t *testing.T) {
					gossipSoakOneSeed(t, seed, shards)
				})
			}
		})
	}
}

// soakVisibleEverywhere reports whether the advertisement is present
// (or, with want=false, absent) on every running shard.
func soakVisible(d *core.Deployment, name string, want bool) bool {
	for _, s := range d.Shards() {
		if !s.Running() {
			continue
		}
		visible := len(s.Discovery().GetLocalAdvertisements(p2p.ServiceAdvType, "Name", name)) > 0
		if visible != want {
			return false
		}
	}
	return true
}

func gossipSoakOneSeed(t *testing.T, seed int64, shards int) {
	const convergenceBound = 15 * time.Second

	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(seed))
	t.Cleanup(func() { _ = net.Close() })
	d, err := core.NewDeployment(core.Config{
		Transport: core.SimulatedTransport(net),
		Seed:      seed,
		Timings: core.Timings{
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  80 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
			LeaseInterval:     200 * time.Millisecond,
			RendezvousLease:   2 * time.Second,
			GossipInterval:    5 * time.Millisecond,
		},
		Shards: shards,
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	addrs := d.ShardAddrs()
	router := p2p.NewShardRouter(addrs)

	ctlTr, err := core.SimulatedTransport(net)("soak-ctl")
	if err != nil {
		t.Fatalf("ctl transport: %v", err)
	}
	ctl := p2p.NewPeer("soak-ctl", p2p.NewIDGen(seed).New(p2p.PeerIDKind), ctlTr)
	ctl.Start()
	t.Cleanup(func() { _ = ctl.Close() })
	client := p2p.NewGossipClient(ctl)

	// Churn: crash/restart dedicated shards and cut shard-to-shard
	// links, deterministically per seed. Shard 0 (the rendezvous)
	// stays up, matching CrashShard's contract. The churn goroutine
	// owns rng; the publish pacing below draws from its own stream so
	// the two never race.
	rng := rand.New(rand.NewSource(seed))
	pubRng := rand.New(rand.NewSource(seed + 7919))
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for shards > 1 {
			select {
			case <-stop:
				return
			default:
			}
			victim := 1 + rng.Intn(shards-1)
			if err := d.CrashShard(victim); err == nil {
				time.Sleep(time.Duration(20+rng.Intn(60)) * time.Millisecond)
				if err := d.RestartShard(victim); err != nil {
					t.Errorf("restart shard %d: %v", victim, err)
					return
				}
			}
			a, b := 1+rng.Intn(shards-1), 1+rng.Intn(shards-1)
			if a != b {
				net.Partition(addrs[a], addrs[b])
				time.Sleep(time.Duration(10+rng.Intn(40)) * time.Millisecond)
				net.Heal(addrs[a], addrs[b])
			}
			time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
		}
	}()

	check := chaos.NewChecker()
	pub := gossip.NewPublisher("soak-origin", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// publishEntry writes the entry to every replica owner and retries
	// until every owner accepted within one pass. One accepting owner
	// is not durable under churn: a restarted shard rejoins with an
	// empty store, so if the second owner was down at publish time and
	// the lone holder then crashes before its first rumor round, the
	// only copy is gone and no amount of anti-entropy brings it back.
	// Owners flap for tens of milliseconds per churn cycle, so the
	// all-owners pass lands quickly. Each attempt also gets its own
	// short deadline: a shard crashing mid-exchange leaves the query
	// pending, and an unbounded attempt would silently eat the whole
	// retry budget waiting on it.
	publishEntry := func(id, name string, entry gossip.Entry) {
		deadline := time.Now().Add(convergenceBound)
		for {
			var lastErr error
			accepted := 0
			owners := router.AppendOwners(nil, p2p.ServiceAdvType, "action", name)
			for _, owner := range owners {
				attemptCtx, cancelAttempt := context.WithTimeout(ctx, 250*time.Millisecond)
				_, err := client.Publish(attemptCtx, owner, entry)
				cancelAttempt()
				if err == nil {
					accepted++
				} else {
					lastErr = err
				}
			}
			if accepted == len(owners) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("publish %s: %d/%d owners accepted: %v", id, accepted, len(owners), lastErr)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	publish := func(i int) (string, string) {
		id := fmt.Sprintf("urn:whisper:soak:%d", i)
		name := fmt.Sprintf("soak-%d", i)
		adv := &p2p.ServiceAdvertisement{SvcID: p2p.ID(id), Name: name}
		raw, merr := adv.MarshalAdv()
		if merr != nil {
			t.Fatalf("marshal: %v", merr)
		}
		publishEntry(id, name, pub.Entry(id, raw, time.Hour))
		return id, name
	}

	// Publish under churn, measuring each advertisement's time to full
	// visibility on the live fleet.
	const ads = 20
	names := make([]string, ads)
	for i := 0; i < ads; i++ {
		_, name := publish(i)
		names[i] = name
		start := time.Now()
		for !soakVisible(d, name, true) {
			if time.Since(start) > convergenceBound {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		check.RecordConvergence(name, time.Since(start), convergenceBound)
		time.Sleep(time.Duration(5+pubRng.Intn(15)) * time.Millisecond)
	}

	// Tombstone half of them, still under churn.
	dead := map[int]bool{}
	for i := 0; i < ads; i += 2 {
		dead[i] = true
		id := fmt.Sprintf("urn:whisper:soak:%d", i)
		publishEntry(id, names[i], pub.Tombstone(id))
	}

	// Quiesce: stop the churn, let restarts and anti-entropy finish.
	close(stop)
	churn.Wait()
	settle := time.Now().Add(convergenceBound)
	for time.Now().Before(settle) {
		ok := true
		for i, name := range names {
			if !soakVisible(d, name, !dead[i]) {
				ok = false
				break
			}
		}
		if ok {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Final invariants: survivors visible everywhere, tombstoned
	// advertisements gone everywhere — and they STAY gone through
	// further gossip rounds (no resurrection).
	for i, name := range names {
		if !soakVisible(d, name, !dead[i]) {
			if dead[i] {
				check.RecordResurrection(name, "post-quiesce fleet")
			} else {
				check.Violationf("advertisement %s missing from a live shard after quiesce", name)
			}
		}
	}
	time.Sleep(100 * time.Millisecond)
	for i, name := range names {
		if dead[i] && !soakVisible(d, name, false) {
			check.RecordResurrection(name, "late gossip round")
		}
	}

	if got := check.Convergences(); got != ads {
		t.Errorf("convergence measurements = %d, want %d", got, ads)
	}
	if v := check.Violations(); len(v) > 0 {
		t.Errorf("invariant violations:\n  %s", strings.Join(v, "\n  "))
	}
}
