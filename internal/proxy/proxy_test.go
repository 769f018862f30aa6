package proxy

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/simnet"
)

// fixture wires a rendezvous, b-peer groups and a proxy on a
// zero-latency simulated network.
type fixture struct {
	net      *simnet.Network
	gen      *p2p.IDGen
	rdvPeer  *p2p.Peer
	reasoner *ontology.Reasoner
	proxy    *SWSProxy
	groups   map[string][]*bpeer.BPeer
	nextPort int
}

func studentSig() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{
		net:      simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		gen:      p2p.NewIDGen(1),
		reasoner: ontology.NewReasoner(ontology.Combined()),
		groups:   make(map[string][]*bpeer.BPeer),
	}
	t.Cleanup(func() { _ = f.net.Close() })

	port, err := f.net.NewPort("rdv")
	if err != nil {
		t.Fatalf("rdv port: %v", err)
	}
	f.rdvPeer = p2p.NewPeer("rdv", f.gen.New(p2p.PeerIDKind), port)
	p2p.NewRendezvousService(f.rdvPeer, 2*time.Second)
	index, err := p2p.NewIndexNode(f.rdvPeer, p2p.GossipConfig{})
	if err != nil {
		t.Fatalf("rdv index node: %v", err)
	}
	f.rdvPeer.Start()
	index.Run()
	t.Cleanup(func() { _ = f.rdvPeer.Close() })
	return f
}

func (f *fixture) port(t *testing.T, name string) *simnet.Port {
	t.Helper()
	f.nextPort++
	p, err := f.net.NewPort(fmt.Sprintf("%s-%d", name, f.nextPort))
	if err != nil {
		t.Fatalf("port %s: %v", name, err)
	}
	return p
}

// addGroup deploys a group of replicas serving the signature with the
// given handler.
func (f *fixture) addGroup(t *testing.T, name string, sig ontology.Signature, profile qos.Profile, replicas int, handler bpeer.Handler) []*bpeer.BPeer {
	t.Helper()
	gid := f.gen.New(p2p.GroupIDKind)
	var peers []*bpeer.BPeer
	for i := 0; i < replicas; i++ {
		bp, err := bpeer.New(f.port(t, name), bpeer.Config{
			Name:              fmt.Sprintf("%s-%d", name, i),
			Rank:              int64(i + 1),
			GroupID:           gid,
			GroupName:         name,
			Signature:         sig,
			QoS:               profile,
			RendezvousAddr:    "rdv",
			Handler:           handler,
			IDGen:             f.gen,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  80 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
			LeaseInterval:     200 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("bpeer %s-%d: %v", name, i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := bp.Start(ctx); err != nil {
			cancel()
			t.Fatalf("start %s-%d: %v", name, i, err)
		}
		cancel()
		t.Cleanup(func() { _ = bp.Close() })
		peers = append(peers, bp)
	}
	f.groups[name] = peers
	f.waitGroupReady(t, peers)
	return peers
}

func (f *fixture) waitGroupReady(t *testing.T, peers []*bpeer.BPeer) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		coord := peers[0].Coordinator()
		ready := coord != ""
		for _, p := range peers {
			if p.Coordinator() != coord {
				ready = false
			}
		}
		if ready {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("group never converged on a coordinator")
}

func (f *fixture) addProxy(t *testing.T, cfg Config) *SWSProxy {
	t.Helper()
	cfg.Name = "sws-proxy"
	cfg.RendezvousAddr = "rdv"
	if cfg.Reasoner == nil {
		cfg.Reasoner = f.reasoner
	}
	p, err := New(f.port(t, "proxy"), cfg)
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	p.Start()
	t.Cleanup(func() { _ = p.Close() })
	f.proxy = p
	return p
}

func echo(name string) bpeer.Handler {
	return bpeer.HandlerFunc(func(_ context.Context, op string, payload []byte) ([]byte, error) {
		return []byte(name + ":" + op + ":" + string(payload)), nil
	})
}

func TestProxyInvokeEndToEnd(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{Reliability: 0.99}, 3, echo("students"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(out) != "students:StudentInformation:S1" {
		t.Errorf("out = %q", out)
	}
}

func TestProxyMatchesSynonymAdvertisement(t *testing.T) {
	f := newFixture(t)
	// The group advertises synonyms of the requested concepts:
	// StudentLookup ≡ StudentInformation etc.
	o := ontology.University()
	synSig := ontology.Signature{
		Action:  o.Term("StudentLookup"),
		Inputs:  []string{o.Term("MatriculationNumber")},
		Outputs: []string{o.Term("StudentRecord")},
	}
	f.addGroup(t, "students-syn", synSig, qos.Profile{}, 2, echo("syn"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	matches, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil {
		t.Fatalf("find: %v", err)
	}
	if len(matches) != 1 {
		t.Fatalf("matches = %d, want 1", len(matches))
	}
	if matches[0].Match.Degree != ontology.MatchExact {
		t.Errorf("degree = %v, want exact (synonyms)", matches[0].Match.Degree)
	}
	out, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S2"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(out) != "syn:StudentInformation:S2" {
		t.Errorf("out = %q", out)
	}
}

func TestProxyRejectsSemanticMismatch(t *testing.T) {
	f := newFixture(t)
	// Deploy a loans group; ask for student information.
	loanSig := ontology.Signature{
		Action:  ontology.ConceptLoanApproval,
		Inputs:  []string{ontology.ConceptLoanApplication},
		Outputs: []string{ontology.ConceptLoanDecision},
	}
	f.addGroup(t, "loans", loanSig, qos.Profile{}, 2, echo("loans"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "StudentInformation", nil); !errors.Is(err, ErrNoMatch) {
		t.Errorf("err = %v, want ErrNoMatch", err)
	}
}

func TestProxyApplicationErrorPassesThrough(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 2,
		bpeer.HandlerFunc(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
			return nil, errors.New("student not enrolled")
		}))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := p.Invoke(ctx, studentSig(), "StudentInformation", []byte("S1"))
	var appErr *ApplicationError
	if !errors.As(err, &appErr) {
		t.Fatalf("err = %v, want *ApplicationError", err)
	}
	if appErr.Msg != "student not enrolled" {
		t.Errorf("msg = %q", appErr.Msg)
	}
}

func TestProxyFailoverMasksCoordinatorCrash(t *testing.T) {
	f := newFixture(t)
	peers := f.addGroup(t, "students", studentSig(), qos.Profile{}, 3, echo("g"))
	p := f.addProxy(t, Config{CallTimeout: 300 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "Op", []byte("warm")); err != nil {
		t.Fatalf("warm-up invoke: %v", err)
	}

	// Crash the coordinator (highest rank).
	if err := peers[2].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// The very next invoke must still succeed through re-binding.
	out, err := p.Invoke(ctx, studentSig(), "Op", []byte("after-crash"))
	if err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	if string(out) != "g:Op:after-crash" {
		t.Errorf("out = %q", out)
	}
	if p.Rebinds() == 0 {
		t.Error("expected at least one re-binding after coordinator crash")
	}
}

func TestProxyPrefersBetterQoSGroup(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "slow", studentSig(),
		qos.Profile{LatencyMillis: 500, Reliability: 0.5, Availability: 0.5}, 1, echo("slow"))
	f.addGroup(t, "fast", studentSig(),
		qos.Profile{LatencyMillis: 2, Reliability: 0.999, Availability: 0.999}, 1, echo("fast"))
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	matches, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil {
		t.Fatalf("find: %v", err)
	}
	if len(matches) != 2 {
		t.Fatalf("matches = %d, want 2", len(matches))
	}
	if matches[0].Adv.Name != "fast" {
		t.Errorf("best group = %s, want fast", matches[0].Adv.Name)
	}
	out, err := p.Invoke(ctx, studentSig(), "Op", nil)
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if string(out) != "fast:Op:" {
		t.Errorf("out = %q, want served by fast group", out)
	}
}

func TestProxyMinDegreeThreshold(t *testing.T) {
	f := newFixture(t)
	o := ontology.University()
	// Group advertises the more general StudentInformation action but
	// outputs only PersonInfo (a superclass of StudentInfo →
	// subsume-level output match).
	generalSig := ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{o.Term("PersonInfo")},
	}
	f.addGroup(t, "general", generalSig, qos.Profile{}, 1, echo("general"))

	strict := f.addProxy(t, Config{MinDegree: ontology.MatchPlugin})
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := strict.FindPeerGroupAdv(ctx, studentSig()); !errors.Is(err, ErrNoMatch) {
		t.Errorf("strict proxy: err = %v, want ErrNoMatch", err)
	}
}

func TestProxyConfigValidation(t *testing.T) {
	f := newFixture(t)
	if _, err := New(f.port(t, "x"), Config{RendezvousAddr: "rdv"}); err == nil {
		t.Error("expected error without reasoner")
	}
	if _, err := New(f.port(t, "y"), Config{Reasoner: f.reasoner}); err == nil {
		t.Error("expected error without rendezvous")
	}
}

func TestProxyRecordsRTT(t *testing.T) {
	f := newFixture(t)
	f.addGroup(t, "students", studentSig(), qos.Profile{}, 1, echo("g"))
	p := f.addProxy(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 5; i++ {
		if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
	}
	lat, ratio, calls, ok := p.Tracker().Observed(f.groups["students"][0].Addr())
	if !ok || calls != 5 || ratio != 1 {
		t.Errorf("tracker: lat=%v ratio=%v calls=%d ok=%v", lat, ratio, calls, ok)
	}
}

// addLoadSharedGroup deploys a load-sharing group whose handlers tag
// responses with their replica name.
func (f *fixture) addLoadSharedGroup(t *testing.T, name string, sig ontology.Signature, replicas int) []*bpeer.BPeer {
	t.Helper()
	gid := f.gen.New(p2p.GroupIDKind)
	var peers []*bpeer.BPeer
	for i := 0; i < replicas; i++ {
		replica := fmt.Sprintf("%s-%d", name, i)
		bp, err := bpeer.New(f.port(t, name), bpeer.Config{
			Name:              replica,
			Rank:              int64(i + 1),
			GroupID:           gid,
			GroupName:         name,
			Signature:         sig,
			RendezvousAddr:    "rdv",
			Handler:           echo(replica),
			IDGen:             f.gen,
			HeartbeatInterval: 20 * time.Millisecond,
			HeartbeatTimeout:  80 * time.Millisecond,
			ElectionTimeout:   40 * time.Millisecond,
			LeaseInterval:     200 * time.Millisecond,
			LoadSharing:       true,
		})
		if err != nil {
			t.Fatalf("bpeer %s: %v", replica, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := bp.Start(ctx); err != nil {
			cancel()
			t.Fatalf("start %s: %v", replica, err)
		}
		cancel()
		t.Cleanup(func() { _ = bp.Close() })
		peers = append(peers, bp)
	}
	f.groups[name] = peers
	f.waitGroupReady(t, peers)
	return peers
}

func TestProxyLoadSharingSpreadsRequests(t *testing.T) {
	f := newFixture(t)
	f.addLoadSharedGroup(t, "shared", studentSig(), 3)
	p := f.addProxy(t, Config{})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	served := map[string]int{}
	for i := 0; i < 12; i++ {
		out, err := p.Invoke(ctx, studentSig(), "Op", nil)
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		// Response prefix is the replica name ("shared-K:Op:").
		served[strings.SplitN(string(out), ":", 2)[0]]++
	}
	if len(served) != 3 {
		t.Errorf("replicas serving = %v, want all 3", served)
	}
	for replica, n := range served {
		if n != 4 {
			t.Errorf("replica %s served %d, want 4 (round robin)", replica, n)
		}
	}
}

func TestProxyLoadSharingSurvivesReplicaCrash(t *testing.T) {
	f := newFixture(t)
	peers := f.addLoadSharedGroup(t, "shared", studentSig(), 3)
	p := f.addProxy(t, Config{CallTimeout: 300 * time.Millisecond})

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	if err := peers[0].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	// Every subsequent request must still succeed (dead replica is
	// dropped from the shared set after one failed call).
	for i := 0; i < 8; i++ {
		if _, err := p.Invoke(ctx, studentSig(), "Op", nil); err != nil {
			t.Fatalf("invoke %d after crash: %v", i, err)
		}
	}
}
