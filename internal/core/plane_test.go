package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
)

// The discovery plane is one mechanism at every fleet size: Shards 0
// and 1 are the ring of one (the paper's single rendezvous), 4 is a
// gossip-replicated fleet. The tests below run one script against all
// three.

const (
	planeStudents = "students"
	planeClaims   = "claims"
)

// transcriptSig asks for an action no group advertises: only the
// reasoner's subsumption (StudentInformation ⊒ TranscriptRetrieval)
// reaches the students group, so the exact-action lookup finds nothing
// and the ladder must fall through to the whole fleet.
func transcriptSig() ontology.Signature {
	s := studentSig()
	s.Action = ontology.UniversityNS + "#TranscriptRetrieval"
	return s
}

func claimsSig() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptClaimProcessing,
		Inputs:  []string{ontology.ConceptClaimID},
		Outputs: []string{ontology.ConceptClaimStatus},
	}
}

func newPlaneDeployment(t *testing.T, shards int, lease time.Duration) (*Deployment, *simnet.Network) {
	t.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	timings := fastTimings()
	timings.LeaseInterval = lease
	timings.GossipInterval = 5 * time.Millisecond
	d, err := NewDeployment(Config{
		Transport: SimulatedTransport(net),
		Seed:      1,
		Timings:   timings,
		Shards:    shards,
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	if got, want := len(d.Shards()), max(1, shards); got != want || len(d.ShardAddrs()) != want {
		t.Fatalf("fleet = %d nodes / %d addrs, want %d", got, len(d.ShardAddrs()), want)
	}
	if d.ShardAddrs()[0] != d.RendezvousAddr() {
		t.Fatalf("node 0 at %s is not the rendezvous %s", d.ShardAddrs()[0], d.RendezvousAddr())
	}
	return d, net
}

func deployPlaneGroup(t *testing.T, d *Deployment, name string, sig ontology.Signature, replicas int) *Group {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g, err := d.DeployGroup(ctx, GroupSpec{
		Name:      name,
		Signature: sig,
		NoJournal: true,
		Count:     replicas,
		Handler: bpeer.HandlerFunc(func(context.Context, string, []byte) ([]byte, error) {
			return []byte("<ok/>"), nil
		}),
	})
	if err != nil {
		t.Fatalf("deploy %s: %v", name, err)
	}
	return g
}

// planeProbe resolves through fresh proxies, so every lookup is cold:
// nothing is answered from a proxy's own cache.
type planeProbe struct {
	t *testing.T
	d *Deployment
	n int
}

func (pp *planeProbe) proxy() *proxy.SWSProxy {
	pp.t.Helper()
	pp.n++
	p, err := pp.d.NewProxy(fmt.Sprintf("probe-%d", pp.n), ProxyOptions{})
	if err != nil {
		pp.t.Fatalf("proxy: %v", err)
	}
	pp.t.Cleanup(func() { _ = p.Close() })
	return p
}

// find returns the names of the groups matching sig, best first.
func (pp *planeProbe) find(sig ontology.Signature) []string {
	pp.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	matches, err := pp.proxy().FindPeerGroupAdv(ctx, sig)
	if err != nil && !errors.Is(err, proxy.ErrNoMatch) {
		pp.t.Fatalf("find %s: %v", sig.Action, err)
	}
	var names []string
	for _, m := range matches {
		names = append(names, m.Adv.Name)
	}
	return names
}

func (pp *planeProbe) byName(name string) []string {
	pp.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	advs, err := pp.proxy().FindByName(ctx, name)
	if err != nil {
		pp.t.Fatalf("find by name %s: %v", name, err)
	}
	var names []string
	for _, a := range advs {
		names = append(names, a.Name)
	}
	return names
}

// servedByOwner reports whether a ring owner of the action's slot —
// the nodes a publish or tombstone for it is written to — serves the
// named group's advertisement.
func servedByOwner(d *Deployment, action, name string) bool {
	owners := p2p.NewShardRouter(d.ShardAddrs()).AppendOwners(nil, bpeer.SemanticAdvType, "action", action)
	for _, s := range d.Shards() {
		for _, owner := range owners {
			if s.Addr() == owner && len(s.Discovery().GetLocalAdvertisements(bpeer.SemanticAdvType, "Name", name)) > 0 {
				return true
			}
		}
	}
	return false
}

// TestDiscoveryPlane: the same script gives the same results at every
// fleet size.
func TestDiscoveryPlane(t *testing.T) {
	for _, shards := range []int{0, 1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, _ := newPlaneDeployment(t, shards, 200*time.Millisecond)
			students := deployPlaneGroup(t, d, planeStudents, studentSig(), 2)
			claims := deployPlaneGroup(t, d, planeClaims, claimsSig(), 1)
			pp := &planeProbe{t: t, d: d}
			got := map[string][]string{}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			got["exact"] = pp.find(studentSig())
			got["subsumed"] = pp.find(transcriptSig())
			got["by name"] = pp.byName(planeClaims)

			// A replica leaving while another survives unpublishes nothing.
			replicas := students.Peers()
			if err := replicas[0].Close(); err != nil {
				t.Fatalf("close %s: %v", replicas[0].Name(), err)
			}
			got["one replica left"] = pp.find(studentSig())

			// The last replica out tombstones the advertisement: gone at
			// once — not at lease expiry — from the nodes that own it (on
			// a ring of one, the whole fleet) and from the rest as the
			// rumor spreads.
			if err := replicas[1].Close(); err != nil {
				t.Fatalf("close %s: %v", replicas[1].Name(), err)
			}
			if servedByOwner(d, studentSig().Action, planeStudents) {
				t.Error("an owner node still serves the group its last replica closed")
			}
			waitAdvEverywhere(t, d, planeStudents, false)
			got["closed"] = pp.find(studentSig())

			// A restarted replica publishes a newer version over the
			// tombstone.
			if err := students.RestartPeer(ctx, replicas[0].Name()); err != nil {
				t.Fatalf("restart %s: %v", replicas[0].Name(), err)
			}
			waitAdvEverywhere(t, d, planeStudents, true)
			got["restarted"] = pp.find(studentSig())

			// A crash says no farewell: the advertisement stays until its
			// lease runs out, then every node drops it.
			if err := claims.CrashPeer(claims.Peers()[0].Name()); err != nil {
				t.Fatalf("crash: %v", err)
			}
			got["just crashed"] = pp.byName(planeClaims)
			waitAdvEverywhere(t, d, planeClaims, false)
			got["lease expired"] = pp.byName(planeClaims)

			want := map[string][]string{
				"exact":            {planeStudents},
				"subsumed":         {planeStudents},
				"by name":          {planeClaims},
				"one replica left": {planeStudents},
				"closed":           nil,
				"restarted":        {planeStudents},
				"just crashed":     {planeClaims},
				"lease expired":    nil,
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("script results:\n got %v\nwant %v", got, want)
			}
		})
	}
}

// TestDiscoveryPlaneRingOfOneCounts pins the wire cost of the ring of
// one, message for message: Shards 0 and 1 are the same deployment, a
// cold lookup is one discovery query and one response whether or not
// the exact-action step could have answered it (the ladder never asks
// the same node twice), and the last replica's close is two gossip
// exchanges: its membership's tombstone, whose answer says nobody is
// left, and the advertisement's. Leases
// are an hour and groups have one replica, so nothing time-driven
// speaks during the script, and the lone index node's gossip engine,
// having no peer, runs no round at all.
func TestDiscoveryPlaneRingOfOneCounts(t *testing.T) {
	var first map[string]int64
	for _, shards := range []int{0, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, net := newPlaneDeployment(t, shards, time.Hour)
			students := deployPlaneGroup(t, d, planeStudents, studentSig(), 1)
			deployPlaneGroup(t, d, planeClaims, claimsSig(), 1)
			pp := &planeProbe{t: t, d: d}

			sent := func(proto string) int64 { return net.Stats().PerProto[proto].Messages }
			step := func(what, proto string, want int64, do func()) {
				t.Helper()
				before := sent(proto)
				do()
				if got := sent(proto) - before; got != want {
					t.Errorf("%s: %d %s messages, want %d", what, got, proto, want)
				}
			}
			step("cold exact lookup", p2p.ProtoDiscovery, 2, func() { pp.find(studentSig()) })
			step("cold subsumption-only lookup", p2p.ProtoDiscovery, 2, func() { pp.find(transcriptSig()) })
			step("cold lookup by name", p2p.ProtoDiscovery, 2, func() { pp.byName(planeClaims) })
			step("last replica's farewell and tombstone", p2p.ProtoGossip, 4, func() {
				if err := students.Peers()[0].Close(); err != nil {
					t.Fatalf("close: %v", err)
				}
			})
			if got := pp.find(studentSig()); got != nil {
				t.Errorf("closed group still discoverable: %v", got)
			}
			if st := d.Shards()[0].GossipStats(); st.Rounds != 0 || st.Reconciles != 0 {
				t.Errorf("ring of one ran %d rumor and %d reconciliation rounds, want none", st.Rounds, st.Reconciles)
			}

			counts := map[string]int64{}
			for proto, ps := range net.Stats().PerProto {
				counts[proto] = ps.Messages
			}
			if first == nil {
				first = counts
			} else if !reflect.DeepEqual(counts, first) {
				t.Errorf("per-protocol messages differ between Shards 0 and 1:\n got %v\nwant %v", counts, first)
			}
		})
	}
}

// TestDiscoveryFindIndependentOfHistory: what a find answers depends on
// the request and the plane, not on the ring size or on what the proxy
// asked before. general advertises AcademicAction, students its
// subclass StudentInformation, enrollment the sibling subclass
// EnrollmentManagement, all over the same data concepts — so every
// request matches one group exactly and others by plug-in or
// subsumption, under other index keys than its own.
func TestDiscoveryFindIndependentOfHistory(t *testing.T) {
	uni := func(name string) ontology.Signature {
		s := studentSig()
		s.Action = ontology.UniversityNS + "#" + name
		return s
	}
	const academic, student, enrollment = "AcademicAction", "StudentInformation", "EnrollmentManagement"
	type found struct {
		Name   string
		Degree ontology.MatchDegree
	}
	var ringOfOne map[string][]found
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, net := newPlaneDeployment(t, shards, time.Hour)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			// Distinct latencies make the rank of two equal-degree
			// groups a property of the catalogue, not of ID minting.
			for i, g := range []struct{ name, action string }{
				{"general", academic}, {"students", student}, {"enrollment", enrollment},
			} {
				_, err := d.DeployGroup(ctx, GroupSpec{
					Name:      g.name,
					Signature: uni(g.action),
					QoS:       qos.Profile{LatencyMillis: float64(5 * (i + 1)), Reliability: 0.99, Availability: 0.99},
					NoJournal: true,
					Count:     1,
					Handler: bpeer.HandlerFunc(func(context.Context, string, []byte) ([]byte, error) {
						return []byte("<ok/>"), nil
					}),
				})
				if err != nil {
					t.Fatalf("deploy %s: %v", g.name, err)
				}
				waitAdvEverywhere(t, d, g.name, true)
			}
			pp := &planeProbe{t: t, d: d}
			find := func(p *proxy.SWSProxy, action string) []found {
				t.Helper()
				matches, err := p.FindPeerGroupAdv(ctx, uni(action))
				if err != nil && !errors.Is(err, proxy.ErrNoMatch) {
					t.Fatalf("find %s: %v", action, err)
				}
				var out []found
				for _, m := range matches {
					out = append(out, found{m.Adv.Name, m.Match.Degree})
				}
				return out
			}

			fresh := map[string][]found{}
			for _, action := range []string{academic, student, enrollment} {
				fresh[action] = find(pp.proxy(), action)
			}
			want := map[string][]found{
				academic:   {{"general", ontology.MatchExact}, {"students", ontology.MatchPlugin}, {"enrollment", ontology.MatchPlugin}},
				student:    {{"students", ontology.MatchExact}, {"general", ontology.MatchSubsume}},
				enrollment: {{"enrollment", ontology.MatchExact}, {"general", ontology.MatchSubsume}},
			}
			if !reflect.DeepEqual(fresh, want) {
				t.Errorf("fresh proxies:\n got %v\nwant %v", fresh, want)
			}
			if ringOfOne == nil {
				ringOfOne = fresh
			} else if !reflect.DeepEqual(fresh, ringOfOne) {
				t.Errorf("ring of %d answers differ from the ring of one:\n got %v\nwant %v", shards, fresh, ringOfOne)
			}

			// Asked first for one action, then for another, a proxy
			// answers the second as a fresh proxy would: never a weaker
			// match out of what the first answer left in its cache.
			for _, first := range []string{academic, student, enrollment} {
				for _, second := range []string{academic, student, enrollment} {
					p := pp.proxy()
					find(p, first)
					if got := find(p, second); !reflect.DeepEqual(got, fresh[second]) {
						t.Errorf("%s asked after %s: got %v, a fresh proxy %v", second, first, got, fresh[second])
					}
				}
			}

			// An action nobody satisfies costs one round per rung of the
			// ladder — the owners of its one key where they are fewer
			// than the fleet, then the fleet — and ships no advertisement.
			rungs, queried := uint64(1), int64(1)
			if shards > 1 {
				rungs, queried = 2, 2+int64(shards)
			}
			p := pp.proxy()
			before := net.Stats().PerProto[p2p.ProtoDiscovery].Messages
			if _, err := p.FindPeerGroupAdv(ctx, uni("NoSuchAction")); !errors.Is(err, proxy.ErrNoMatch) {
				t.Errorf("unsatisfiable action: err = %v, want ErrNoMatch", err)
			}
			s := p.DiscoveryStats()
			if s.RemoteQueries != rungs || s.RemoteAdvs != 0 || s.Size != 0 {
				t.Errorf("unsatisfiable action: %d rounds, %d advertisements shipped, %d cached; want %d, 0, 0",
					s.RemoteQueries, s.RemoteAdvs, s.Size, rungs)
			}
			if got := net.Stats().PerProto[p2p.ProtoDiscovery].Messages - before; got != 2*queried {
				t.Errorf("unsatisfiable action: %d discovery messages, want %d", got, 2*queried)
			}
			// A declared action whose whole closure is unadvertised
			// ships nothing either.
			p = pp.proxy()
			care := ontology.Signature{Action: ontology.ConceptCarePlanning,
				Inputs: []string{ontology.ConceptPatientID}, Outputs: []string{ontology.ConceptTreatmentPlan}}
			if _, err := p.FindPeerGroupAdv(ctx, care); !errors.Is(err, proxy.ErrNoMatch) {
				t.Errorf("unadvertised closure: err = %v, want ErrNoMatch", err)
			}
			if s := p.DiscoveryStats(); s.RemoteAdvs != 0 {
				t.Errorf("unadvertised closure: %d advertisements shipped, want 0", s.RemoteAdvs)
			}
		})
	}
}

// TestDiscoveryFindForgetsDepartedGroup: a group that one lookup
// fetched and that has left since is not in another lookup's answer.
// The proxy asks for AcademicAction, whose answer holds students;
// students' last replica closes, which tombstones it at once; asked for
// StudentInformation next, the same proxy answers what a fresh proxy
// answers, not what the first answer left behind.
func TestDiscoveryFindForgetsDepartedGroup(t *testing.T) {
	academic := studentSig()
	academic.Action = ontology.UniversityNS + "#AcademicAction"
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, _ := newPlaneDeployment(t, shards, time.Hour)
			deployPlaneGroup(t, d, "general", academic, 1)
			students := deployPlaneGroup(t, d, planeStudents, studentSig(), 1)
			waitAdvEverywhere(t, d, "general", true)
			waitAdvEverywhere(t, d, planeStudents, true)
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			find := func(p *proxy.SWSProxy, sig ontology.Signature) []string {
				t.Helper()
				matches, err := p.FindPeerGroupAdv(ctx, sig)
				if err != nil && !errors.Is(err, proxy.ErrNoMatch) {
					t.Fatalf("find %s: %v", sig.Action, err)
				}
				var names []string
				for _, m := range matches {
					names = append(names, m.Adv.Name)
				}
				return names
			}

			pp := &planeProbe{t: t, d: d}
			p := pp.proxy()
			if got := find(p, academic); !slices.Contains(got, planeStudents) {
				t.Fatalf("AcademicAction answered %v, want it to hold %s", got, planeStudents)
			}
			if err := students.Peers()[0].Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			waitAdvEverywhere(t, d, planeStudents, false)
			got, fresh := find(p, studentSig()), find(pp.proxy(), studentSig())
			if !reflect.DeepEqual(got, []string{"general"}) || !reflect.DeepEqual(fresh, got) {
				t.Errorf("StudentInformation after %s left: this proxy %v, a fresh proxy %v; want [general] from both",
					planeStudents, got, fresh)
			}
		})
	}
}
