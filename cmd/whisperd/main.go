// Command whisperd runs Whisper components over real TCP sockets. A
// deployment can live in one process (-role all) or be spread across
// machines/processes, exactly like the paper's 9-machine testbed:
//
//	# terminal 1: the rendezvous peer
//	whisperd -role rendezvous -listen 127.0.0.1:7000
//
//	# terminals 2..n: replicated b-peers (ranks must be unique)
//	whisperd -role bpeer -rendezvous 127.0.0.1:7000 -rank 1 -backend db
//	whisperd -role bpeer -rendezvous 127.0.0.1:7000 -rank 2 -backend warehouse
//
//	# terminal n+1: the semantic Web service (SOAP over HTTP)
//	whisperd -role service -rendezvous 127.0.0.1:7000 -http :8080
//
//	# invoke it
//	curl -s -X POST --data '<soap:Envelope ...>' http://localhost:8080/
//
// With -role all, whisperd starts a rendezvous, N b-peers and the
// service in one process and serves SOAP on -http.
package main

import (
	"context"
	"encoding/xml"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/loadctl"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/soap"
	"whisper/internal/trace"
	"whisper/internal/wsdl"
)

// defaultGroupID is the shared StudentManagement group URN; every
// b-peer of the same logical group must use the same -group value.
const defaultGroupID = "urn:jxta:group-uuid-studentmanagement"

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "whisperd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("whisperd", flag.ContinueOnError)
	var (
		role       = fs.String("role", "all", "role: all|rendezvous|bpeer|service")
		listen     = fs.String("listen", "127.0.0.1:0", "TCP listen address for this peer")
		rendezvous = fs.String("rendezvous", "", "rendezvous peer address (bpeer/service roles)")
		httpAddr   = fs.String("http", ":8080", "HTTP listen address for the SOAP endpoint (service/all roles)")
		rank       = fs.Int64("rank", 1, "bully rank of this b-peer (unique per group)")
		group      = fs.String("group", defaultGroupID, "b-peer group URN")
		backendSel = fs.String("backend", "db", "backend for bpeer role: db|warehouse")
		replicas   = fs.Int("replicas", 3, "replica count for -role all")
		students   = fs.Int("students", 100, "students in the seeded dataset")
		seed       = fs.Int64("seed", 1, "dataset seed")
		tracing    = fs.Bool("tracing", false, "record distributed traces; 'peerctl trace' dumps them from this process's peers")
		admit      = fs.Bool("admit", false, "enable the SWS-proxy admission pipeline (token bucket, deadline check, AIMD concurrency limit); 'peerctl status' inspects it live")
		admitRate  = fs.Float64("admit-rate", 0, "admission: per-client token-bucket refill in req/s (0 = no per-client rate limit)")
		admitBurst = fs.Float64("admit-burst", 0, "admission: per-client token-bucket burst (default: the refill rate)")
		admitLimit = fs.Float64("admit-limit", 0, "admission: initial AIMD concurrency limit (default 4)")
		admitQueue = fs.Int("admit-queue", 0, "admission: deadline-ordered wait-queue capacity (default 64, negative disables queueing)")
		shards     = fs.Int("shards", 0, "discovery index nodes for -role all (0 or 1 = the rendezvous alone); a larger fleet replicates advertisements via gossip")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var adm *loadctl.Controller
	if *admit {
		adm = loadctl.NewController(loadctl.Config{
			Rate:         *admitRate,
			Burst:        *admitBurst,
			InitialLimit: *admitLimit,
			MaxQueue:     *admitQueue,
		})
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tracer := newProcessTracer(*tracing)
	switch *role {
	case "all":
		return runAll(ctx, *httpAddr, *replicas, *students, *shards, *seed, *tracing, adm)
	case "rendezvous":
		return runRendezvous(ctx, *listen, tracer)
	case "bpeer":
		return runBPeer(ctx, *listen, *rendezvous, *group, *rank, *backendSel, *students, *seed, tracer)
	case "service":
		return runService(ctx, *listen, *rendezvous, *httpAddr, tracer, adm)
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

// newProcessTracer builds this process's tracer (nil when tracing is
// off; a nil tracer is a valid no-op). Every peer started in the
// process shares its collector and serves remote trace dumps.
func newProcessTracer(enabled bool) *trace.Tracer {
	if !enabled {
		return nil
	}
	return trace.New(trace.NewCollector(trace.DefaultCapacity))
}

func runAll(ctx context.Context, httpAddr string, replicas, students, shards int, seed int64, tracing bool, adm *loadctl.Controller) error {
	dep, err := core.NewDeployment(core.Config{
		Transport: core.TCPTransport("127.0.0.1:0"),
		Seed:      seed,
		Tracing:   tracing,
		Shards:    shards,
	})
	if err != nil {
		return err
	}
	defer func() { _ = dep.Close() }()
	log.Printf("whisperd: discovery fleet of %d (peerctl -shards %s shards)",
		len(dep.ShardAddrs()), strings.Join(dep.ShardAddrs(), ","))

	records := backend.SeedStudents(students, seed)
	specs := make([]core.ReplicaSpec, replicas)
	for i := range specs {
		var store backend.StudentStore
		if i%2 == 0 {
			store = backend.NewOperationalDB(records, 0)
		} else {
			store = backend.NewDataWarehouse(records, 0)
		}
		specs[i] = core.ReplicaSpec{Handler: studentHandler(store)}
	}
	deployCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if _, derr := dep.DeployGroup(deployCtx, core.GroupSpec{
		Name:      "StudentManagement",
		Signature: studentSignature(),
		QoS:       qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
		Replicas:  specs,
	}); derr != nil {
		return fmt.Errorf("deploy group: %w", derr)
	}
	svc, err := dep.DeployService(wsdl.StudentManagement(), core.ServiceOptions{Admission: adm})
	if err != nil {
		return fmt.Errorf("deploy service: %w", err)
	}
	log.Printf("whisperd: %d b-peers behind StudentManagement, SOAP on %s", replicas, httpAddr)
	return serveHTTP(ctx, httpAddr, svc.Handler())
}

func runRendezvous(ctx context.Context, listen string, tracer *trace.Tracer) error {
	peer, err := startRendezvous(listen, tracer)
	if err != nil {
		return err
	}
	defer func() { _ = peer.Close() }()
	log.Printf("whisperd: rendezvous listening on %s", peer.Addr())
	<-ctx.Done()
	return nil
}

// startRendezvous brings a rendezvous — an index node, a discovery
// ring of one — online over TCP and returns it (tests use the returned
// address directly).
func startRendezvous(listen string, tracer *trace.Tracer) (*p2p.Peer, error) {
	// The rendezvous caches and re-serves b-peer semantic
	// advertisements, so it must know their XML type even though it
	// never constructs one itself (in its own OS process nothing else
	// registers them). Memberships are peer advertisements with their
	// members' leases.
	bpeer.EnsureAdvTypes()
	tr, err := simnet.NewTCPTransport(listen)
	if err != nil {
		return nil, err
	}
	gen := p2p.NewIDGen(0)
	peer := p2p.NewPeer("rendezvous", gen.New(p2p.PeerIDKind), tr)
	peer.SetTracer(tracer)
	if col := tracer.Collector(); col != nil {
		p2p.ServeTraces(peer, col)
	}
	index, err := p2p.NewIndexNode(peer, p2p.GossipConfig{})
	if err != nil {
		_ = peer.Close()
		return nil, err
	}
	peer.Start()
	index.Run()
	return peer, nil
}

func runBPeer(ctx context.Context, listen, rendezvous, group string, rank int64, backendSel string, students int, seed int64, tracer *trace.Tracer) error {
	if rendezvous == "" {
		return errors.New("-role bpeer requires -rendezvous")
	}
	records := backend.SeedStudents(students, seed)
	var store backend.StudentStore
	switch backendSel {
	case "db":
		store = backend.NewOperationalDB(records, 0)
	case "warehouse":
		store = backend.NewDataWarehouse(records, 0)
	default:
		return fmt.Errorf("unknown backend %q (want db|warehouse)", backendSel)
	}
	bp, err := startBPeer(ctx, listen, rendezvous, group, rank, store, tracer)
	if err != nil {
		return err
	}
	defer func() { _ = bp.Close() }()
	log.Printf("whisperd: b-peer rank %d (%s backend) on %s, rendezvous %s",
		rank, store.Name(), bp.Addr(), rendezvous)
	<-ctx.Done()
	return nil
}

func runService(ctx context.Context, listen, rendezvous, httpAddr string, tracer *trace.Tracer, adm *loadctl.Controller) error {
	if rendezvous == "" {
		return errors.New("-role service requires -rendezvous")
	}
	srv, p, err := startService(listen, rendezvous, tracer, adm)
	if err != nil {
		return err
	}
	defer func() { _ = p.Close() }()
	log.Printf("whisperd: semantic Web service on %s (P2P peer %s, rendezvous %s)",
		httpAddr, p.Addr(), rendezvous)
	return serveHTTP(ctx, httpAddr, srv)
}

// startBPeer brings one b-peer replica online over TCP.
func startBPeer(ctx context.Context, listen, rendezvous, group string, rank int64, store backend.StudentStore, tracer *trace.Tracer) (*bpeer.BPeer, error) {
	tr, err := simnet.NewTCPTransport(listen)
	if err != nil {
		return nil, err
	}
	bp, err := bpeer.New(tr, bpeer.Config{
		Name:           fmt.Sprintf("bpeer-%d", rank),
		Rank:           rank,
		GroupID:        p2p.ID(group),
		GroupName:      "StudentManagement",
		Signature:      studentSignature(),
		QoS:            qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99},
		RendezvousAddr: rendezvous,
		Handler:        studentHandler(store),
		FailStop:       func(err error) bool { return errors.Is(err, backend.ErrUnavailable) },
		Tracer:         tracer,
	})
	if err != nil {
		return nil, err
	}
	startCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := bp.Start(startCtx); err != nil {
		return nil, err
	}
	return bp, nil
}

// startService builds the SOAP front end bound to an SWS-proxy,
// optionally behind an admission pipeline.
func startService(listen, rendezvous string, tracer *trace.Tracer, adm *loadctl.Controller) (*soap.Server, *proxy.SWSProxy, error) {
	tr, err := simnet.NewTCPTransport(listen)
	if err != nil {
		return nil, nil, err
	}
	reasoner := ontology.NewReasoner(ontology.Combined())
	p, err := proxy.New(tr, proxy.Config{
		Name:           "sws-proxy",
		RendezvousAddr: rendezvous,
		Reasoner:       reasoner,
		Tracer:         tracer,
		Admission:      adm,
	})
	if err != nil {
		return nil, nil, err
	}
	p.Start()

	defs := wsdl.StudentManagement()
	sig, err := defs.Signature("StudentInformation")
	if err != nil {
		_ = p.Close()
		return nil, nil, err
	}
	srv := soap.NewServer()
	srv.SetTracer(tracer)
	srv.Register("StudentInformation", func(ctx context.Context, bodyXML []byte) (any, error) {
		out, err := p.Invoke(ctx, sig, "StudentInformation", bodyXML)
		if err != nil {
			return nil, soap.ServerFault(err)
		}
		return out, nil
	})
	return srv, p, nil
}

func studentSignature() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

func studentHandler(store backend.StudentStore) bpeer.Handler {
	return bpeer.HandlerFunc(func(_ context.Context, _ string, payload []byte) ([]byte, error) {
		id, err := extractStudentID(payload)
		if err != nil {
			return nil, err
		}
		rec, err := store.Student(id)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf(
			"<StudentInfo><ID>%s</ID><Name>%s</Name><Program>%s</Program><Year>%d</Year><Email>%s</Email><Source>%s</Source></StudentInfo>",
			rec.ID, rec.Name, rec.Program, rec.Year, rec.Email, rec.Source)), nil
	})
}

func extractStudentID(payload []byte) (string, error) {
	var req struct {
		StudentID string `xml:"StudentID"`
	}
	if err := xml.Unmarshal(payload, &req); err != nil {
		return "", fmt.Errorf("bad request: %w", err)
	}
	if req.StudentID == "" {
		return "", errors.New("missing StudentID")
	}
	return req.StudentID, nil
}

func serveHTTP(ctx context.Context, addr string, handler http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return srv.Shutdown(shutdownCtx)
	}
}
