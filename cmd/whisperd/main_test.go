package main

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/leakcheck"
	"whisper/internal/loadctl"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
	"whisper/internal/soap"
	"whisper/internal/trace"
)

// TestMain fails the package when the in-process roles (peers, the
// SOAP front end, b-peer loops) outlive the tests that started them.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }

func TestExtractStudentID(t *testing.T) {
	id, err := extractStudentID([]byte("<StudentInformation><StudentID>S7</StudentID></StudentInformation>"))
	if err != nil || id != "S7" {
		t.Errorf("id = %q, %v", id, err)
	}
	if _, err := extractStudentID([]byte("<StudentInformation/>")); err == nil {
		t.Error("expected error for missing StudentID")
	}
	if _, err := extractStudentID([]byte("not xml")); err == nil {
		t.Error("expected error for malformed XML")
	}
}

func TestRunRejectsUnknownRoleAndBackend(t *testing.T) {
	if err := run([]string{"-role", "nope"}); err == nil {
		t.Error("expected error for unknown role")
	}
	if err := run([]string{"-role", "bpeer", "-rendezvous", "x", "-backend", "nope"}); err == nil {
		t.Error("expected error for unknown backend")
	}
	if err := run([]string{"-role", "bpeer"}); err == nil {
		t.Error("bpeer without rendezvous should fail")
	}
	if err := run([]string{"-role", "service"}); err == nil {
		t.Error("service without rendezvous should fail")
	}
}

// TestMultiProcessTopologyOverTCP wires the whisperd roles exactly as
// separate processes would — rendezvous, two b-peers, SOAP service —
// all over real TCP sockets, and drives a SOAP request through.
func TestMultiProcessTopologyOverTCP(t *testing.T) {
	rdv, err := startRendezvous("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	t.Cleanup(func() { _ = rdv.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	records := backend.SeedStudents(10, 1)
	group := "urn:jxta:group-uuid-test"
	bp1, err := startBPeer(ctx, "127.0.0.1:0", rdv.Addr(), group, 1,
		backend.NewDataWarehouse(records, 0), nil)
	if err != nil {
		t.Fatalf("bpeer 1: %v", err)
	}
	t.Cleanup(func() { _ = bp1.Close() })
	bp2, err := startBPeer(ctx, "127.0.0.1:0", rdv.Addr(), group, 2,
		backend.NewOperationalDB(records, 0), nil)
	if err != nil {
		t.Fatalf("bpeer 2: %v", err)
	}
	t.Cleanup(func() { _ = bp2.Close() })

	tracer := newProcessTracer(true)
	// Admission enabled as `whisperd -admit` would: the pipeline must be
	// transparent at this load (a single sequential request).
	adm := loadctl.NewController(loadctl.Config{})
	srv, prx, err := startService("127.0.0.1:0", rdv.Addr(), tracer, adm)
	if err != nil {
		t.Fatalf("service: %v", err)
	}
	t.Cleanup(func() { _ = prx.Close() })

	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	client := soap.NewClient(ts.URL)

	// The group needs a coordinator before requests flow.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if bp1.Coordinator() != "" && bp1.Coordinator() == bp2.Coordinator() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	env, err := client.CallRaw(ctx, "StudentInformation",
		[]byte("<StudentInformation><StudentID>S0003</StudentID></StudentInformation>"))
	if err != nil {
		t.Fatalf("soap call: %v", err)
	}
	if env.Fault != nil {
		t.Fatalf("fault: %v", env.Fault)
	}
	if !strings.Contains(string(env.BodyXML), "<ID>S0003</ID>") {
		t.Errorf("body = %q", env.BodyXML)
	}
	// Rank 2 (the operational DB peer) should be serving.
	if !strings.Contains(string(env.BodyXML), "operational-db") {
		t.Errorf("expected the DB coordinator to answer: %q", env.BodyXML)
	}
	if s := adm.Snapshot(); s.Admitted < 1 || s.ShedTotal() != 0 {
		t.Errorf("admission pipeline: admitted=%d sheds=%d, want >=1 and 0", s.Admitted, s.ShedTotal())
	}

	// The traced service process recorded the SOAP operation and the
	// proxy's phase spans, all in one trace.
	recs := tracer.Collector().Snapshot()
	names := make(map[string]trace.ID)
	for _, r := range recs {
		names[r.Name] = r.TraceID
	}
	for _, want := range []string{"soap.StudentInformation", "proxy.invoke", "discovery", "bind", "call"} {
		if _, ok := names[want]; !ok {
			t.Errorf("service trace missing span %q (got %v)", want, names)
		}
	}
	if names["proxy.invoke"] != names["soap.StudentInformation"] {
		t.Errorf("soap and proxy spans are in different traces: %v", names)
	}
}

// TestRendezvousLeasesLikeACoreDeployment: whisperd's rendezvous drops a
// member that stopped renewing — a kill -9'd b-peer in another process —
// once the lease the b-peer published its membership with has run out:
// bpeer.MembershipLease of the default lease interval, the lease a core
// deployment's b-peers carry.
func TestRendezvousLeasesLikeACoreDeployment(t *testing.T) {
	rdv, err := startRendezvous("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("rendezvous: %v", err)
	}
	t.Cleanup(func() { _ = rdv.Close() })
	tr, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lookup := p2p.NewPeer("lookup", "urn:jxta:peer-lookup", tr)
	disco := p2p.NewDiscoveryClient(lookup)
	lookup.Start()
	t.Cleanup(func() { _ = lookup.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	const gid = p2p.ID("urn:jxta:group-lease")
	bp, err := startBPeer(ctx, "127.0.0.1:0", rdv.Addr(), string(gid), 1, backend.NewOperationalDB(backend.SeedStudents(1, 1), 0), nil)
	if err != nil {
		t.Fatalf("bpeer: %v", err)
	}
	if err := bp.Crash(); err != nil {
		t.Fatal(err)
	}
	// The last renewal went out at most one default lease interval
	// before the crash.
	crashed, lease, interval := time.Now(), bpeer.MembershipLease(0), time.Second
	ring := p2p.NewShardRouter([]string{rdv.Addr()})
	for {
		asked := time.Since(crashed)
		members, err := disco.Members(ctx, ring, gid)
		if err != nil {
			t.Fatalf("members: %v", err)
		}
		if len(members) == 0 {
			break
		}
		if asked > lease+time.Second {
			t.Fatalf("a member that stopped renewing is still listed %v after its crash; the lease is %v", asked, lease)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if since := time.Since(crashed); since < lease-interval {
		t.Errorf("the member was dropped %v after its crash, before its %v lease can have run out", since, lease)
	}
}
