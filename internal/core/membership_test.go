package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"whisper/internal/backend"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
)

// newMembershipBed deploys a group of n replicas on a zero-latency
// simulated network the test keeps hold of, so it can cut links.
func newMembershipBed(t *testing.T, n int) (*simnet.Network, *Deployment, *Group) {
	t.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	d, err := NewDeployment(Config{Transport: SimulatedTransport(net), Seed: 1, Timings: fastTimings()})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return net, d, deployStudentGroup(t, d, n)
}

// coordinators returns the names of the running replicas that believe
// they are coordinator, and whether every other running replica follows
// the first of them.
func coordinators(g *Group) (crowned []string, followed bool) {
	peers := g.RunningPeers()
	lead := ""
	for _, p := range peers {
		if p.IsCoordinator() {
			crowned = append(crowned, p.Name())
			if lead == "" {
				lead = p.Addr()
			}
		}
	}
	followed = lead != ""
	for _, p := range peers {
		if p.Coordinator() != lead {
			followed = false
		}
	}
	return crowned, followed
}

// waitOneCoordinator polls until exactly one running replica is
// coordinator and the others follow it, and returns how long that took.
func waitOneCoordinator(t *testing.T, g *Group, within time.Duration, when string) time.Duration {
	t.Helper()
	start := time.Now()
	for {
		crowned, followed := coordinators(g)
		if len(crowned) == 1 && followed {
			return time.Since(start)
		}
		if time.Since(start) > within {
			t.Fatalf("%s: coordinators %v (followed by all: %v) after %v, want exactly one within that time", when, crowned, followed, within)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRendezvousOutageDuringFailoverCrownsOne: the survivors of a
// coordinator crash elect among the members they know, so a rendezvous
// that cannot be reached at that moment changes nothing. (Each survivor
// used to ask the rendezvous who to run against, fell back to itself
// alone when it did not answer, and crowned itself — for good.)
func TestRendezvousOutageDuringFailoverCrownsOne(t *testing.T) {
	net, d, g := newMembershipBed(t, 4)
	tm := fastTimings()

	net.Isolate(d.RendezvousAddr())
	if _, err := g.CrashCoordinator(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Detection, the answer timeout of the winner's round, and the
	// journal barrier, which waits out the dead member for
	// HeartbeatTimeout (shortening that wait is ROADMAP's failover item).
	took := waitOneCoordinator(t, g, 2*tm.HeartbeatTimeout+3*tm.ElectionTimeout, "rendezvous unreachable")
	t.Logf("one coordinator %v after the crash", took)
	if want := g.RunningPeers()[2]; !want.IsCoordinator() {
		t.Fatalf("coordinator is not %s, the highest-ranked survivor", want.Name())
	}

	net.Rejoin(d.RendezvousAddr())
	time.Sleep(2 * tm.LeaseInterval)
	if crowned, followed := coordinators(g); len(crowned) != 1 || !followed {
		t.Fatalf("coordinators %v (followed by all: %v) two lease intervals after the rendezvous returned, want still one", crowned, followed)
	}
}

// TestPartitionedCoordinatorsConvergeAfterHeal: cut the highest-ranked
// replica off from the other two — the rendezvous reachable from both
// sides — until each side has a coordinator; when the links heal the
// sides must find each other and settle on the highest rank.
func TestPartitionedCoordinatorsConvergeAfterHeal(t *testing.T) {
	net, _, g := newMembershipBed(t, 3)
	tm := fastTimings()
	peers := g.Peers()
	low, mid, top := peers[0], peers[1], peers[2]

	net.Partition(top.Addr(), low.Addr())
	net.Partition(top.Addr(), mid.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for !(top.IsCoordinator() && mid.IsCoordinator() && low.Coordinator() == mid.Addr()) {
		if time.Now().After(deadline) {
			t.Fatalf("the sides never crowned one coordinator each: top follows %q, mid %q, low %q",
				top.Coordinator(), mid.Coordinator(), low.Coordinator())
		}
		time.Sleep(time.Millisecond)
	}

	net.Heal(top.Addr(), low.Addr())
	net.Heal(top.Addr(), mid.Addr())
	took := waitOneCoordinator(t, g, 2*tm.LeaseInterval+3*tm.ElectionTimeout, "links healed")
	t.Logf("one coordinator %v after the heal", took)
	if !top.IsCoordinator() {
		t.Fatalf("coordinator is %s, want the highest-ranked %s", g.Coordinator(), top.Name())
	}
}

// TestLostAnnouncementIsRepairedByHeartbeat: a replica that never got
// the coordinator's announcement learns who leads from the claim the
// next heartbeat carries — within two heartbeat intervals, and without a
// heartbeat more than the group exchanges anyway.
func TestLostAnnouncementIsRepairedByHeartbeat(t *testing.T) {
	net, _, g := newMembershipBed(t, 3)
	tm := fastTimings()
	peers := g.Peers()
	low, mid, top := peers[0], peers[1], peers[2]

	// Two followers pinging one coordinator: a ping and a pong each per
	// interval, counted over whole intervals with one to spare at the
	// edges.
	const intervals = 10
	budget := int64(2 * 2 * (intervals + 1))
	beats := func() int64 {
		before := net.Stats().PerProto[p2p.ProtoHeartbeat].Messages
		time.Sleep(intervals * tm.HeartbeatInterval)
		return net.Stats().PerProto[p2p.ProtoHeartbeat].Messages - before
	}
	if got := beats(); got > budget {
		t.Fatalf("%d heartbeat messages in %d intervals of a healthy group, budget %d", got, intervals, budget)
	}

	if err := g.CrashPeer(top.Name()); err != nil {
		t.Fatalf("crash: %v", err)
	}
	waitOneCoordinator(t, g, 5*time.Second, "top crashed")
	// Everything top says to low on its return is lost, its announcement
	// included; mid hears it.
	net.SetLinkDropRate(top.Addr(), low.Addr(), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := g.RestartPeer(ctx, top.Name()); err != nil {
		t.Fatalf("restart: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !(top.IsCoordinator() && mid.Coordinator() == top.Addr()) {
		if time.Now().After(deadline) {
			t.Fatalf("top never took over: top follows %q, mid %q", top.Coordinator(), mid.Coordinator())
		}
		time.Sleep(time.Millisecond)
	}
	if got := low.Coordinator(); got != mid.Addr() {
		t.Fatalf("low follows %q, want it still on %s: the announcement was to be lost", got, mid.Name())
	}

	net.SetLinkDropRate(top.Addr(), low.Addr(), -1)
	took := waitOneCoordinator(t, g, 2*tm.HeartbeatInterval+tm.HeartbeatInterval/2, "link restored")
	t.Logf("low follows top %v after the link returned", took)
	if got := beats(); got > budget {
		t.Fatalf("%d heartbeat messages in %d intervals after the repair, budget %d as before", got, intervals, budget)
	}
}

// TestFormationConverges: a group that forms must end with one
// coordinator every time, on both substrates, within the deadline the
// end-to-end benchmark gives a deployment. Nightly runs it -count=40
// under the race detector: a thousand formations per substrate.
func TestFormationConverges(t *testing.T) {
	const formations = 25
	handler := studentHandler(backend.NewOperationalDB(backend.SeedStudents(5, 1), 0))
	substrates := []struct {
		name      string
		transport func(t *testing.T) TransportFactory
	}{
		{"simnet", func(t *testing.T) TransportFactory {
			net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
			t.Cleanup(func() { _ = net.Close() })
			return SimulatedTransport(net)
		}},
		{"tcp", func(*testing.T) TransportFactory { return TCPTransport("127.0.0.1:0") }},
	}
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			d, err := NewDeployment(Config{Transport: sub.transport(t), Seed: 1, Timings: fastTimings()})
			if err != nil {
				t.Fatalf("deployment: %v", err)
			}
			t.Cleanup(func() { _ = d.Close() })
			wedged := 0
			for i := 0; i < formations; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				g, err := d.DeployGroup(ctx, GroupSpec{
					Name:      fmt.Sprintf("formation-%d", i),
					Signature: studentSig(),
					Handler:   handler,
					Count:     3,
				})
				cancel()
				if err != nil {
					wedged++
					t.Errorf("formation %d: %v", i, err)
					continue
				}
				if crowned, followed := coordinators(g); len(crowned) != 1 || !followed {
					wedged++
					t.Errorf("formation %d: coordinators %v (followed by all: %v)", i, crowned, followed)
				}
				if err := g.Close(); err != nil {
					t.Errorf("formation %d: close: %v", i, err)
				}
			}
			t.Logf("%s: %d of %d formations wedged", sub.name, wedged, formations)
		})
	}
}
