package bpeer

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/simnet"
)

// deployment is a rendezvous (an index node holding the group's member
// list) plus a group of b-peer replicas on a zero-latency simulated
// network.
type deployment struct {
	net     *simnet.Network
	gen     *p2p.IDGen
	rdvPeer *p2p.Peer
	rdvDsc  *p2p.DiscoveryService
	gid     p2p.ID
	peers   []*BPeer

	// handler overrides the per-replica handler factory (echoHandler
	// when nil).
	handler func(name string) Handler
	// readOps configures ReadOnlyOps on every replica (set before
	// peers are added; see newBareDeployment).
	readOps []string
}

func echoHandler(name string) Handler {
	return HandlerFunc(func(_ context.Context, op string, payload []byte) ([]byte, error) {
		return []byte(name + ":" + op + ":" + string(payload)), nil
	})
}

func studentSig() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

func newDeployment(t *testing.T, replicas int) *deployment {
	t.Helper()
	return newDeploymentWithHandler(t, replicas, nil)
}

// newDeploymentWithHandler deploys with a custom handler factory.
func newDeploymentWithHandler(t *testing.T, replicas int, handler func(name string) Handler) *deployment {
	t.Helper()
	d := newBareDeployment(t, handler)
	for i := 0; i < replicas; i++ {
		d.addPeer(t, i)
	}
	return d
}

// newBareDeployment builds the network and rendezvous without any
// replicas, so tests can tweak deployment-wide config (readOps) before
// calling addPeer.
func newBareDeployment(t *testing.T, handler func(name string) Handler) *deployment {
	t.Helper()
	d := &deployment{
		net:     simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		gen:     p2p.NewIDGen(1),
		handler: handler,
	}
	t.Cleanup(func() { _ = d.net.Close() })

	port, err := d.net.NewPort("rdv")
	if err != nil {
		t.Fatalf("rdv port: %v", err)
	}
	d.rdvPeer = p2p.NewPeer("rdv", d.gen.New(p2p.PeerIDKind), port)
	index, err := p2p.NewIndexNode(d.rdvPeer, p2p.GossipConfig{})
	if err != nil {
		t.Fatalf("rdv index node: %v", err)
	}
	d.rdvDsc = index.Discovery()
	d.rdvPeer.Start()
	index.Run()
	t.Cleanup(func() { _ = d.rdvPeer.Close() })

	d.gid = d.gen.New(p2p.GroupIDKind)
	return d
}

func (d *deployment) addPeer(t *testing.T, i int) *BPeer {
	t.Helper()
	name := fmt.Sprintf("bp%d", i)
	port, err := d.net.NewPort(name)
	if err != nil {
		t.Fatalf("port %s: %v", name, err)
	}
	mkHandler := d.handler
	if mkHandler == nil {
		mkHandler = echoHandler
	}
	bp, err := New(port, Config{
		Name:              name,
		Rank:              int64(i + 1),
		GroupID:           d.gid,
		GroupName:         "StudentManagement",
		Signature:         studentSig(),
		QoS:               qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
		RendezvousAddr:    "rdv",
		Handler:           mkHandler(name),
		IDGen:             d.gen,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
		LeaseInterval:     200 * time.Millisecond,
		MemberLease:       2 * time.Second,
		ReadOnlyOps:       d.readOps,
	})
	if err != nil {
		t.Fatalf("new bpeer %s: %v", name, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := bp.Start(ctx); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	t.Cleanup(func() { _ = bp.Close() })
	d.peers = append(d.peers, bp)
	return bp
}

// waitCoordinator blocks until every live peer in the list agrees on a
// coordinator and returns it.
func waitCoordinator(t *testing.T, peers []*BPeer, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		coord := peers[0].Coordinator()
		if coord != "" {
			agreed := true
			for _, p := range peers[1:] {
				if p.Coordinator() != coord {
					agreed = false
					break
				}
			}
			if agreed {
				return coord
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("peers never agreed on a coordinator")
	return ""
}

// rawCall sends a service request directly over a fresh client peer.
func (d *deployment) rawCall(t *testing.T, pipe *p2p.PipeAdvertisement, op string, payload []byte) (string, string, []byte) {
	t.Helper()
	port, err := d.net.NewPort("client-" + op + "-" + string(pipe.PipeID))
	if err != nil {
		t.Fatalf("client port: %v", err)
	}
	client := p2p.NewPeer("client", d.gen.New(p2p.PeerIDKind), port)
	client.Start()
	t.Cleanup(func() { _ = client.Close() })
	pipes := p2p.NewPipeService(client, d.gen)

	req, err := EncodeRequest(op, payload, "")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := pipes.Call(ctx, pipe, req)
	if err != nil {
		t.Fatalf("call: %v", err)
	}
	r, err := DecodeResponseFull(resp)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if r.Status == statusError {
		t.Fatalf("error response: %s", r.Error)
	}
	return r.Status, r.Coordinator, r.Payload
}

func TestSemanticAdvertisementRoundTrip(t *testing.T) {
	EnsureAdvTypes()
	adv := NewSemanticAdvertisement("urn:jxta:group-1", "StudentManagement", studentSig(),
		qos.Profile{LatencyMillis: 5, CostPerCall: 0.1, Reliability: 0.99, Availability: 0.999})
	raw, err := adv.MarshalAdv()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	parsed, err := p2p.ParseAdvertisement(raw)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	back, ok := parsed.(*SemanticAdvertisement)
	if !ok {
		t.Fatalf("parsed type %T", parsed)
	}
	if back.GID != adv.GID || back.Action != adv.Action {
		t.Errorf("mismatch: %+v", back)
	}
	if !back.Signature().Equal(adv.Signature()) {
		t.Errorf("signature lost: %+v vs %+v", back.Signature(), adv.Signature())
	}
	if back.QoS != adv.QoS {
		t.Errorf("qos lost: %+v vs %+v", back.QoS, adv.QoS)
	}
	if got := back.Attributes()["action"]; got != adv.Action {
		t.Errorf("action attribute = %q", got)
	}
}

func TestBPeerConfigValidation(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	t.Cleanup(func() { _ = net.Close() })
	port, err := net.NewPort("x")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	if _, err := New(port, Config{GroupID: "g", RendezvousAddr: "r"}); err == nil {
		t.Error("expected error without handler")
	}
	if _, err := New(port, Config{Handler: echoHandler("x"), RendezvousAddr: "r"}); err == nil {
		t.Error("expected error without group ID")
	}
	if _, err := New(port, Config{Handler: echoHandler("x"), GroupID: "g"}); err == nil {
		t.Error("expected error without rendezvous")
	}
}

func TestSingleBPeerBecomesCoordinatorAndServes(t *testing.T) {
	d := newDeployment(t, 1)
	bp := d.peers[0]
	waitCoordinator(t, d.peers, 3*time.Second)
	if !bp.IsCoordinator() {
		t.Fatal("single replica should be coordinator")
	}
	status, _, out := d.rawCall(t, bp.ServicePipe(), "StudentInformation", []byte("S1"))
	if status != statusOK {
		t.Fatalf("status = %s", status)
	}
	if string(out) != "bp0:StudentInformation:S1" {
		t.Errorf("out = %q", out)
	}
}

func TestGroupElectsHighestRankAndRedirects(t *testing.T) {
	d := newDeployment(t, 3)
	coord := waitCoordinator(t, d.peers, 3*time.Second)
	if coord != d.peers[2].Addr() {
		t.Fatalf("coordinator = %s, want %s (highest rank)", coord, d.peers[2].Addr())
	}
	// A request to a non-coordinator must redirect.
	status, redirect, _ := d.rawCall(t, d.peers[0].ServicePipe(), "Op", nil)
	if status != statusRedirect {
		t.Fatalf("status = %s, want redirect", status)
	}
	if redirect != coord {
		t.Errorf("redirect = %s, want %s", redirect, coord)
	}
	// A request to the coordinator is served.
	status, _, out := d.rawCall(t, d.peers[2].ServicePipe(), "Op", []byte("x"))
	if status != statusOK || string(out) != "bp2:Op:x" {
		t.Errorf("status=%s out=%q", status, out)
	}
}

func TestCoordinatorFailoverElectsNext(t *testing.T) {
	d := newDeployment(t, 3)
	waitCoordinator(t, d.peers, 3*time.Second)

	// Crash the coordinator (rank 3).
	if err := d.peers[2].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	survivors := d.peers[:2]
	deadline := time.Now().Add(5 * time.Second)
	want := d.peers[1].Addr() // rank 2 takes over
	for time.Now().Before(deadline) {
		if survivors[0].Coordinator() == want && survivors[1].Coordinator() == want {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if survivors[0].Coordinator() != want || survivors[1].Coordinator() != want {
		t.Fatalf("survivors disagree: %s / %s, want %s",
			survivors[0].Coordinator(), survivors[1].Coordinator(), want)
	}
	// The new coordinator serves.
	status, _, out := d.rawCall(t, d.peers[1].ServicePipe(), "Op", []byte("y"))
	if status != statusOK || string(out) != "bp1:Op:y" {
		t.Errorf("status=%s out=%q", status, out)
	}
}

// TestPrematureFailureReportRearmsDetector: a detector report that
// turns out wrong (a stalled process, a late pong) costs one election the
// live coordinator wins again from its old address. The followers must
// watch it again afterwards, or its next real crash goes unnoticed and
// the group serves nothing until it restarts.
func TestPrematureFailureReportRearmsDetector(t *testing.T) {
	d := newDeployment(t, 3)
	coord := waitCoordinator(t, d.peers, 3*time.Second)
	followers := d.peers[:2]
	for _, f := range followers {
		f.group.Silent(coord) // the coordinator is alive
	}
	eventually := func(what string, ok func(f *BPeer) bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for _, f := range followers {
			for !ok(f) {
				if time.Now().After(deadline) {
					t.Fatalf("%s: %s (%s)", f.Name(), what, viewString(f.group.current()))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	eventually("does not watch the re-announced coordinator", func(f *BPeer) bool {
		w := f.group.Beat()
		return len(w) == 1 && w[0] == coord
	})
	// The real crash is detected and survived.
	if err := d.peers[2].Crash(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	successor := d.peers[1].Addr()
	eventually("never learned of the successor", func(f *BPeer) bool { return f.Coordinator() == successor })
}

func TestSemanticAdvPublishedAtRendezvous(t *testing.T) {
	d := newDeployment(t, 2)
	waitCoordinator(t, d.peers, 3*time.Second)
	advs := d.rdvDsc.GetLocalAdvertisements(SemanticAdvType, "action", ontology.ConceptStudentInformation)
	if len(advs) != 1 {
		t.Fatalf("rendezvous cache has %d semantic advs, want 1", len(advs))
	}
	if advs[0].AdvID() != d.gid {
		t.Errorf("adv GID = %s, want %s", advs[0].AdvID(), d.gid)
	}
}

func TestQueryCoordinatorFromMemberAndCoordinator(t *testing.T) {
	d := newDeployment(t, 2)
	coord := waitCoordinator(t, d.peers, 3*time.Second)

	port, err := d.net.NewPort("querier")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	qp := p2p.NewPeer("querier", d.gen.New(p2p.PeerIDKind), port)
	qp.Start()
	t.Cleanup(func() { _ = qp.Close() })
	res := p2p.NewResolverOn(qp, ProtoBinding)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	// Ask the non-coordinator: get address only.
	gotCoord, pipeID, err := QueryCoordinator(ctx, res, d.peers[0].Addr())
	if err != nil {
		t.Fatalf("query member: %v", err)
	}
	if gotCoord != coord || pipeID != "" {
		t.Errorf("member answer = %s/%s, want %s/<empty>", gotCoord, pipeID, coord)
	}
	// Ask the coordinator: get address and pipe.
	gotCoord, pipeID, err = QueryCoordinator(ctx, res, coord)
	if err != nil {
		t.Fatalf("query coordinator: %v", err)
	}
	if gotCoord != coord || pipeID != d.peers[1].ServicePipe().PipeID {
		t.Errorf("coordinator answer = %s/%s", gotCoord, pipeID)
	}
}

func TestRequestResponseCodecRoundTrip(t *testing.T) {
	req, err := EncodeRequest("Op", []byte("<payload/>"), "")
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	// Feed through the serve-side struct by decoding as peerRequest.
	var pr peerRequest
	if derr := decodeXML(req, &pr); derr != nil {
		t.Fatalf("decode request: %v", derr)
	}
	if pr.Op != "Op" || string(pr.Payload) != "<payload/>" {
		t.Errorf("request = %+v", pr)
	}

	r, err := DecodeResponseFull(mustXML(t, peerResponse{
		Status: statusOK, Payload: []byte("data"),
	}))
	if err != nil || r.Status != statusOK || string(r.Payload) != "data" || r.Coordinator != "" || r.Error != "" {
		t.Errorf("decoded = %+v %v", r, err)
	}
	if _, err := DecodeResponseFull([]byte("garbage")); err == nil {
		t.Error("expected decode error")
	}
}

func TestBPeerDoubleCloseAndRestartRejected(t *testing.T) {
	d := newDeployment(t, 1)
	bp := d.peers[0]
	if err := bp.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := bp.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := bp.Start(context.Background()); err == nil {
		t.Error("start after close should fail")
	}
}

func TestQueryServicePipe(t *testing.T) {
	d := newDeployment(t, 2)
	waitCoordinator(t, d.peers, 3*time.Second)

	port, err := d.net.NewPort("pipequerier")
	if err != nil {
		t.Fatalf("port: %v", err)
	}
	qp := p2p.NewPeer("pipequerier", d.gen.New(p2p.PeerIDKind), port)
	qp.Start()
	t.Cleanup(func() { _ = qp.Close() })
	res := p2p.NewResolverOn(qp, ProtoBinding)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	pipe, err := QueryServicePipe(ctx, res, d.peers[0].Addr())
	if err != nil {
		t.Fatalf("query pipe: %v", err)
	}
	if pipe.Addr != d.peers[0].Addr() || pipe.PipeID != d.peers[0].ServicePipe().PipeID {
		t.Errorf("pipe = %+v", pipe)
	}
}

func TestCoordinatedPolicyIsDefaultInAdvertisement(t *testing.T) {
	// An advertisement that lists no read-only operation sends every
	// operation to the coordinator, and says nothing else about how the
	// group serves: no policy element, no policy attribute.
	adv := NewSemanticAdvertisement("urn:g", "G", studentSig(), qos.Profile{})
	raw, err := adv.MarshalAdv()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if bytes.Contains(raw, []byte("Policy")) || bytes.Contains(raw, []byte("ReadOp")) {
		t.Errorf("default advertisement document names a policy or read op:\n%s", raw)
	}
	back := &SemanticAdvertisement{}
	if uerr := back.UnmarshalAdv(raw); uerr != nil {
		t.Fatalf("unmarshal: %v", uerr)
	}
	if back.IsReadOp("Op") || len(back.ReadOps) != 0 {
		t.Errorf("round-trip read ops = %v, want none", back.ReadOps)
	}
	if _, ok := back.Attributes()["policy"]; ok {
		t.Errorf("attributes = %v, want no policy attribute", back.Attributes())
	}
}
