package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/proxy"
	"whisper/internal/replog"
	"whisper/internal/wsdl"
)

// newShardedDeployment builds a deployment whose discovery index is
// spread over n gossip-replicated shards (shard 0 is the rendezvous).
func newShardedDeployment(t *testing.T, n int) *Deployment {
	t.Helper()
	d, _ := newPlaneDeployment(t, n, fastTimings().LeaseInterval)
	return d
}

// waitAdvEverywhere polls until the semantic advertisement set is
// (in)visible on every *running* shard's local index.
func waitAdvEverywhere(t *testing.T, d *Deployment, name string, want bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for _, s := range d.Shards() {
			if !s.Running() {
				continue
			}
			visible := len(s.Discovery().GetLocalAdvertisements(
				bpeer.SemanticAdvType, "Name", name)) > 0
			if visible != want {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("advertisement %q visible=%v never reached all running shards", name, want)
}

// TestShardedDeploymentDisseminates: a group's one-shot gossip publish
// at its owner shard spreads to every shard's ordinary discovery
// index, and the service keeps working end-to-end through the sharded
// discovery path.
func TestShardedDeploymentDisseminates(t *testing.T) {
	d := newShardedDeployment(t, 4)
	if got := len(d.ShardAddrs()); got != 4 {
		t.Fatalf("shard fleet = %d, want 4", got)
	}
	g := deployStudentGroup(t, d, 2)
	waitAdvEverywhere(t, d, g.Name(), true)

	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0001"))
	if err != nil {
		t.Fatalf("invoke through sharded discovery: %v", err)
	}
	if !strings.Contains(string(out), "<ID>S0001</ID>") {
		t.Errorf("invoke out = %q", out)
	}
}

// TestShardCrashRestartRepopulates: a crashed shard restarts with an
// empty index and anti-entropy reconciliation refills it from the
// surviving fleet — without any republish from the group.
func TestShardCrashRestartRepopulates(t *testing.T) {
	d := newShardedDeployment(t, 4)
	g := deployStudentGroup(t, d, 2)
	waitAdvEverywhere(t, d, g.Name(), true)

	if err := d.CrashShard(2); err != nil {
		t.Fatalf("crash shard: %v", err)
	}
	if err := d.CrashShard(2); err == nil {
		t.Fatal("double crash not rejected")
	}
	// The fleet keeps serving (lease renewals route around the crash).
	waitAdvEverywhere(t, d, g.Name(), true)

	if err := d.RestartShard(2); err != nil {
		t.Fatalf("restart shard: %v", err)
	}
	s := d.Shards()[2]
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.Discovery().GetLocalAdvertisements(bpeer.SemanticAdvType, "Name", g.Name())) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("restarted shard never repopulated via anti-entropy")
}

// TestMembershipSurvivesShardZero: a membership is an advertisement on
// the ring like any other, so node 0 is an ordinary index node. With it
// crashed, and then the group's coordinator, a proxy bound before the
// crashes and a fresh one both complete a keyed write: the survivors
// re-elect, and every re-bind finds the members on the other owners.
func TestMembershipSurvivesShardZero(t *testing.T) {
	d := newShardedDeployment(t, 3)
	g := deployStudentGroup(t, d, 3)
	waitAdvEverywhere(t, d, g.Name(), true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	write := func(p *proxy.SWSProxy, key string) {
		t.Helper()
		out, err := p.Invoke(replog.ContextWithKey(ctx, key), studentSig(), "StudentInformation", studentRequestXML("S0001"))
		if err != nil {
			t.Fatalf("keyed write %s through %s: %v", key, p.Addr(), err)
		}
		if !strings.Contains(string(out), "<ID>S0001</ID>") {
			t.Fatalf("keyed write %s answered %q", key, out)
		}
	}
	bound, err := d.NewProxy("bound", ProxyOptions{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { _ = bound.Close() })
	write(bound, "before")

	if err := d.CrashShard(0); err != nil {
		t.Fatalf("crash shard 0: %v", err)
	}
	if _, err := g.CrashCoordinator(); err != nil {
		t.Fatalf("crash coordinator: %v", err)
	}
	write(bound, "after-bound")
	fresh, err := d.NewProxy("fresh", ProxyOptions{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { _ = fresh.Close() })
	write(fresh, "after-fresh")
}

// TestShardedGroupCloseTombstones: the last replica leaving gracefully
// tombstones the group advertisement, and the tombstone spreads — the
// dead group disappears from every shard and stays dead.
func TestShardedGroupCloseTombstones(t *testing.T) {
	d := newShardedDeployment(t, 3)
	g := deployStudentGroup(t, d, 2)
	waitAdvEverywhere(t, d, g.Name(), true)

	if err := g.Close(); err != nil {
		t.Fatalf("close group: %v", err)
	}
	waitAdvEverywhere(t, d, g.Name(), false)
	// No resurrection: stale live copies must keep losing to the
	// tombstone even after further gossip rounds.
	time.Sleep(100 * time.Millisecond)
	for _, s := range d.Shards() {
		if got := len(s.Discovery().GetLocalAdvertisements(bpeer.SemanticAdvType, "Name", g.Name())); got != 0 {
			t.Errorf("shard %s resurrected the closed group (%d advs)", s.Name(), got)
		}
	}
}
