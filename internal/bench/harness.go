package bench

import (
	"context"
	"encoding/xml"
	"fmt"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/wsdl"
)

// ClusterOptions configures one experiment deployment.
type ClusterOptions struct {
	// Peers is the number of b-peer replicas in the student group.
	Peers int
	// Latency is the network latency model; nil selects the
	// LAN-calibrated model (the paper's 100 Mbit/s testbed).
	Latency simnet.LatencyModel
	// Seed drives all randomness.
	Seed int64
	// Timings overrides protocol timeouts; zero selects bench
	// defaults (50ms heartbeats, 200ms detection).
	Timings core.Timings
	// Students is the backend dataset size.
	Students int
	// Tracing equips the deployment with a shared trace collector (see
	// core.Config.Tracing).
	Tracing bool
}

func (o *ClusterOptions) applyDefaults() {
	if o.Peers <= 0 {
		o.Peers = 3
	}
	if o.Latency == nil {
		o.Latency = simnet.NewLANModel(o.Seed + 1)
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Students <= 0 {
		o.Students = 100
	}
	if o.Timings == (core.Timings{}) {
		o.Timings = benchTimings()
	}
}

// benchTimings returns the bench-default protocol timings (50ms
// heartbeats, 200ms detection). An experiment that differs changes the
// fields it needs on the copy and passes it as ClusterOptions.Timings.
func benchTimings() core.Timings {
	return core.Timings{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		ElectionTimeout:   100 * time.Millisecond,
		LeaseInterval:     500 * time.Millisecond,
		RendezvousLease:   5 * time.Second,
		BindTimeout:       time.Second,
		CallTimeout:       time.Second,
		RetryDelay:        50 * time.Millisecond,
	}
}

// benchQoS is the profile the experiments' groups advertise unless QoS
// is what they measure.
var benchQoS = qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99}

// TestBed is the part of a deployment every experiment needs: a
// simulated network, a core.Deployment on it, and one Close.
type TestBed struct {
	Net     *simnet.Network
	Dep     *core.Deployment
	proxies []*proxy.SWSProxy
}

// NewTestBed builds a test bed from the Seed, Latency, Timings and
// Tracing fields of opts (zero values select the LAN model and the
// bench-default timings); the topology fields are NewCluster's.
func NewTestBed(opts ClusterOptions) (*TestBed, error) {
	opts.applyDefaults()
	net := simnet.NewNetwork(simnet.WithLatency(opts.Latency), simnet.WithSeed(opts.Seed))
	dep, err := core.NewDeployment(core.Config{
		Transport: core.SimulatedTransport(net),
		Seed:      opts.Seed,
		Timings:   opts.Timings,
		Tracing:   opts.Tracing,
	})
	if err != nil {
		_ = net.Close()
		return nil, err
	}
	return &TestBed{Net: net, Dep: dep}, nil
}

// NewProxy starts a bare SWS-proxy on the deployment; Close stops it.
func (b *TestBed) NewProxy(name string, opts core.ProxyOptions) (*proxy.SWSProxy, error) {
	p, err := b.Dep.NewProxy(name, opts)
	if err == nil {
		b.proxies = append(b.proxies, p)
	}
	return p, err
}

// Close tears the test bed down: proxies, deployment, network.
func (b *TestBed) Close() error {
	for _, p := range b.proxies {
		_ = p.Close()
	}
	err := b.Dep.Close()
	if cerr := b.Net.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// Cluster is the student-management topology on a test bed: the
// student service and its backing group.
type Cluster struct {
	*TestBed
	Group   *core.Group
	Service *core.Service
	opts    ClusterOptions
}

// NewCluster builds the student-management topology used by most
// experiments: one rendezvous, N b-peers (alternating operational-DB
// and data-warehouse backends) and one SOAP-fronted semantic service.
func NewCluster(ctx context.Context, opts ClusterOptions) (*Cluster, error) {
	opts.applyDefaults()
	bed, err := NewTestBed(opts)
	if err != nil {
		return nil, err
	}
	c := &Cluster{TestBed: bed, opts: opts}

	records := backend.SeedStudents(opts.Students, opts.Seed)
	specs := make([]core.ReplicaSpec, opts.Peers)
	for i := range specs {
		var store backend.StudentStore
		if i%2 == 0 {
			store = backend.NewOperationalDB(records, 0)
		} else {
			store = backend.NewDataWarehouse(records, 0)
		}
		specs[i] = core.ReplicaSpec{Handler: StudentHandler(store)}
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	c.Group, err = c.Dep.DeployGroup(ctx, core.GroupSpec{
		Name:      "StudentManagement",
		Signature: StudentSignature(),
		QoS:       benchQoS,
		Replicas:  specs,
	})
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("bench: deploy group: %w", err)
	}
	c.Service, err = c.Dep.DeployService(wsdl.StudentManagement(), core.ServiceOptions{})
	if err != nil {
		_ = c.Close()
		return nil, fmt.Errorf("bench: deploy service: %w", err)
	}
	return c, nil
}

// Invoke performs one student lookup through the full semantic path.
func (c *Cluster) Invoke(ctx context.Context, studentID string) ([]byte, error) {
	return c.Service.Invoke(ctx, "StudentInformation", StudentRequestXML(studentID))
}

// StudentID formats the i-th student's ID (wrapping around the
// dataset).
func (c *Cluster) StudentID(i int) string {
	return fmt.Sprintf("S%04d", 1+i%c.opts.Students)
}

// StudentSignature is the semantic signature of the paper's running
// example.
func StudentSignature() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

// StudentRequestXML builds the operation's request body.
func StudentRequestXML(id string) []byte {
	return []byte(`<StudentInformation><StudentID>` + id + `</StudentID></StudentInformation>`)
}

// StudentHandler wraps a StudentStore as a b-peer handler.
func StudentHandler(store backend.StudentStore) bpeer.Handler {
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

// finiteBackend models a replica backend with finite concurrency:
// workers slots (<= 0: unbounded) and service of work per request,
// both honouring the request context. begin runs once a slot is held
// and BEFORE the work happens, and produces the reply the request gets
// when the work completes — so a state change made in begin (see
// recordPayment) stands even when a crash mid-request loses the reply.
func finiteBackend(workers int, service time.Duration, begin func(op string, payload []byte) ([]byte, error)) bpeer.Handler {
	var sem chan struct{}
	if workers > 0 {
		sem = make(chan struct{}, workers)
	}
	return bpeer.HandlerFunc(func(ctx context.Context, op string, payload []byte) ([]byte, error) {
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
			defer func() { <-sem }()
		}
		reply, err := begin(op, payload)
		if err != nil {
			return nil, err
		}
		timer := time.NewTimer(service)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return reply, nil
	})
}
