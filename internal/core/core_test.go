package core

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/leakcheck"
	"whisper/internal/ontology"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/soap"
	"whisper/internal/wsdl"
)

// fastTimings keeps protocol timeouts short for tests.
func fastTimings() Timings {
	return Timings{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
		ElectionTimeout:   40 * time.Millisecond,
		LeaseInterval:     200 * time.Millisecond,
		RendezvousLease:   2 * time.Second,
		BindTimeout:       500 * time.Millisecond,
		CallTimeout:       500 * time.Millisecond,
		RetryDelay:        50 * time.Millisecond,
	}
}

func newSimDeployment(t *testing.T) *Deployment {
	t.Helper()
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	t.Cleanup(func() { _ = net.Close() })
	d, err := NewDeployment(Config{
		Transport: SimulatedTransport(net),
		Seed:      1,
		Timings:   fastTimings(),
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	return d
}

func studentSig() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

// studentHandler wraps a StudentStore as a b-peer handler speaking the
// StudentInformation request/response XML.
func studentHandler(store backend.StudentStore) bpeer.Handler {
	return bpeer.HandlerFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		var req struct {
			XMLName   xml.Name `xml:"StudentInformation"`
			StudentID string   `xml:"StudentID"`
		}
		if err := xml.Unmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("bad request: %w", err)
		}
		rec, err := store.Student(req.StudentID)
		if err != nil {
			return nil, err
		}
		return xml.Marshal(struct {
			XMLName xml.Name `xml:"StudentInfo"`
			backend.StudentRecord
		}{StudentRecord: rec})
	})
}

func deployStudentGroup(t *testing.T, d *Deployment, replicas int) *Group {
	t.Helper()
	records := backend.SeedStudents(20, 1)
	specs := make([]ReplicaSpec, replicas)
	for i := range specs {
		// Odd replicas answer from the warehouse, even ones from the
		// operational DB — semantically equivalent backends (§4.1).
		var store backend.StudentStore
		if i%2 == 0 {
			store = backend.NewOperationalDB(records, 0)
		} else {
			store = backend.NewDataWarehouse(records, 0)
		}
		specs[i] = ReplicaSpec{Handler: studentHandler(store)}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	g, err := d.DeployGroup(ctx, GroupSpec{
		Name:      "StudentManagement",
		Signature: studentSig(),
		QoS:       qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
		Replicas:  specs,
	})
	if err != nil {
		t.Fatalf("deploy group: %v", err)
	}
	return g
}

func studentRequestXML(id string) []byte {
	return []byte(`<StudentInformation><StudentID>` + id + `</StudentID></StudentInformation>`)
}

func TestEndToEndStudentScenario(t *testing.T) {
	d := newSimDeployment(t)
	deployStudentGroup(t, d, 3)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0007"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	s := string(out)
	if !strings.Contains(s, "<ID>S0007</ID>") {
		t.Errorf("response missing student: %q", s)
	}
	if !strings.HasPrefix(s, "<StudentInfo") {
		t.Errorf("response root should be StudentInfo (translated): %q", s)
	}
}

func TestEndToEndOverSOAPHTTP(t *testing.T) {
	d := newSimDeployment(t)
	deployStudentGroup(t, d, 2)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}

	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := soap.NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env, err := client.CallRaw(ctx, "StudentInformation", studentRequestXML("S0003"))
	if err != nil {
		t.Fatalf("soap call: %v", err)
	}
	if env.Fault != nil {
		t.Fatalf("fault: %v", env.Fault)
	}
	if !strings.Contains(string(env.BodyXML), "<ID>S0003</ID>") {
		t.Errorf("body = %q", env.BodyXML)
	}
}

func TestEndToEndSOAPFaultForUnknownStudent(t *testing.T) {
	d := newSimDeployment(t)
	deployStudentGroup(t, d, 2)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	client := soap.NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	env, err := client.CallRaw(ctx, "StudentInformation", studentRequestXML("S9999"))
	if err != nil {
		t.Fatalf("soap call: %v", err)
	}
	if env.Fault == nil {
		t.Fatalf("expected soap:Fault, got %q", env.BodyXML)
	}
	if !strings.Contains(env.Fault.Reason, "not found") {
		t.Errorf("fault reason = %q", env.Fault.Reason)
	}
}

func TestEndToEndFailover(t *testing.T) {
	d := newSimDeployment(t)
	g := deployStudentGroup(t, d, 3)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, werr := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0001")); werr != nil {
		t.Fatalf("warm-up: %v", werr)
	}

	crashed, err := g.CrashCoordinator()
	if err != nil {
		t.Fatalf("crash coordinator: %v", err)
	}
	t.Logf("crashed coordinator %s", crashed)

	out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0002"))
	if err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	if !strings.Contains(string(out), "<ID>S0002</ID>") {
		t.Errorf("out = %q", out)
	}
	if svc.Proxy().Rebinds() == 0 {
		t.Error("expected a re-binding after coordinator crash")
	}
}

func TestEndToEndBackendFailover(t *testing.T) {
	// §4.1 scenario: DB peer fails (the whole replica crashes), the
	// warehouse replica transparently answers the same request.
	d := newSimDeployment(t)
	records := backend.SeedStudents(10, 1)
	db := backend.NewOperationalDB(records, 0)
	wh := backend.NewDataWarehouse(records, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	g, err := d.DeployGroup(ctx, GroupSpec{
		Name:      "StudentManagement",
		Signature: studentSig(),
		Replicas: []ReplicaSpec{
			{Name: "warehouse-peer", Handler: studentHandler(wh)},
			{Name: "db-peer", Handler: studentHandler(db)}, // higher rank → coordinator
		},
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}

	out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0004"))
	if err != nil {
		t.Fatalf("invoke: %v", err)
	}
	if !strings.Contains(string(out), "operational-db") {
		t.Errorf("first answer should come from the DB peer: %q", out)
	}

	if _, cerr := g.CrashCoordinator(); cerr != nil {
		t.Fatalf("crash: %v", cerr)
	}
	out, err = svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0004"))
	if err != nil {
		t.Fatalf("invoke after crash: %v", err)
	}
	if !strings.Contains(string(out), "data-warehouse") {
		t.Errorf("failover answer should come from the warehouse: %q", out)
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	d, err := NewDeployment(Config{
		Transport: TCPTransport("127.0.0.1:0"),
		Seed:      1,
		Timings:   fastTimings(),
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })

	records := backend.SeedStudents(5, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, derr := d.DeployGroup(ctx, GroupSpec{
		Name:      "StudentManagement",
		Signature: studentSig(),
		Handler:   studentHandler(backend.NewOperationalDB(records, 0)),
		Count:     2,
	}); derr != nil {
		t.Fatalf("deploy group: %v", derr)
	}
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}
	out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0002"))
	if err != nil {
		t.Fatalf("invoke over TCP: %v", err)
	}
	if !strings.Contains(string(out), "<ID>S0002</ID>") {
		t.Errorf("out = %q", out)
	}
}

// TestFailoverOverTCP: on real sockets a crashed coordinator is a closed
// listener and closed connections. The survivors' sends to it must fail
// (detector evidence) and the proxy must re-bind within the caller's
// context, as on the simulated LAN.
func TestFailoverOverTCP(t *testing.T) {
	d, err := NewDeployment(Config{
		Transport: TCPTransport("127.0.0.1:0"),
		Seed:      1,
		Timings:   fastTimings(),
	})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	g, err := d.DeployGroup(ctx, GroupSpec{
		Name:      "StudentManagement",
		Signature: studentSig(),
		Handler:   studentHandler(backend.NewOperationalDB(backend.SeedStudents(5, 1), 0)),
		Count:     3,
	})
	if err != nil {
		t.Fatalf("deploy group: %v", err)
	}
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy service: %v", err)
	}
	invoke := func(phase string) {
		t.Helper()
		out, err := svc.Invoke(ctx, "StudentInformation", studentRequestXML("S0002"))
		if err != nil {
			t.Fatalf("invoke %s: %v", phase, err)
		}
		if !strings.Contains(string(out), "<ID>S0002</ID>") {
			t.Errorf("%s: out = %q", phase, out)
		}
	}
	invoke("before the crash")
	if _, err := g.CrashCoordinator(); err != nil {
		t.Fatalf("crash: %v", err)
	}
	invoke("after the crash")
}

func TestDeployGroupValidation(t *testing.T) {
	d := newSimDeployment(t)
	ctx := context.Background()
	if _, err := d.DeployGroup(ctx, GroupSpec{Signature: studentSig(), Count: 1}); err == nil {
		t.Error("expected error for unnamed group")
	}
	if _, err := d.DeployGroup(ctx, GroupSpec{Name: "g", Signature: studentSig()}); err == nil {
		t.Error("expected error for zero replicas")
	}
	if _, err := d.DeployGroup(ctx, GroupSpec{Name: "g", Signature: studentSig(), Count: 1}); err == nil {
		t.Error("expected error for replica without handler")
	}
}

// TestDeployGroupFailureLeavesNothingRunning: a group that fails to
// deploy is never registered with the deployment, so DeployGroup itself
// must stop whatever the attempt started — replicas already running, the
// replica whose Start failed, their endpoints. The oracle is that the
// same group deploys cleanly afterwards (on simnet a leaked replica
// still holds the address the retry needs) and that closing the
// deployment leaves no goroutine behind.
func TestDeployGroupFailureLeavesNothingRunning(t *testing.T) {
	net := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1))
	d, err := NewDeployment(Config{Transport: SimulatedTransport(net), Seed: 1, Timings: fastTimings()})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	handler := studentHandler(backend.NewOperationalDB(backend.SeedStudents(5, 1), 0))
	spec := GroupSpec{Name: "StudentManagement", Signature: studentSig(), Handler: handler, Count: 3}

	// The first replica's Start fails: its context is already over.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.DeployGroup(expired, spec); err == nil {
		t.Fatal("DeployGroup with an expired context succeeded")
	}

	// The first replica is up and running when the second is rejected.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	broken := spec
	broken.Handler = nil
	broken.Replicas = []ReplicaSpec{{Handler: handler}, {}}
	if _, err := d.DeployGroup(ctx, broken); err == nil {
		t.Fatal("DeployGroup with a handler-less replica succeeded")
	}

	if _, err := d.DeployGroup(ctx, spec); err != nil {
		t.Fatalf("deploy after two failed attempts: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Fatalf("network close: %v", err)
	}
	if err := leakcheck.Check(5 * time.Second); err != nil {
		t.Fatal(err)
	}
}

func TestDeployServiceValidation(t *testing.T) {
	d := newSimDeployment(t)
	// No semantic operations.
	defs := wsdl.New("Plain", "http://x")
	itf := defs.AddInterface("I")
	itf.AddOperation("Op", "", nil, nil)
	if _, err := d.DeployService(defs, ServiceOptions{}); err == nil {
		t.Error("expected error for non-semantic service")
	}
	// Duplicate deployment.
	deployStudentGroup(t, d, 1)
	if _, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{}); err != nil {
		t.Fatalf("first deploy: %v", err)
	}
	if _, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{}); err == nil {
		t.Error("expected error for duplicate service")
	}
}

func TestServiceUnknownOperation(t *testing.T) {
	d := newSimDeployment(t)
	deployStudentGroup(t, d, 1)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	if _, err := svc.Invoke(context.Background(), "Nope", nil); err == nil {
		t.Error("expected error for unknown operation")
	}
}

func TestServiceInvokeNoGroup(t *testing.T) {
	d := newSimDeployment(t)
	svc, err := d.DeployService(wsdl.StudentManagement(), ServiceOptions{})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err = svc.Invoke(ctx, "StudentInformation", studentRequestXML("S1"))
	if !errors.Is(err, proxy.ErrNoMatch) {
		t.Errorf("err = %v, want proxy.ErrNoMatch", err)
	}
}

func TestDeploymentCloseIdempotent(t *testing.T) {
	d := newSimDeployment(t)
	deployStudentGroup(t, d, 1)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
