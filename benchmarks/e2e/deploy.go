package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/soap"
	"whisper/internal/wsdl"
)

// The benchmark owns its timing constants so a product PR that changes
// a default cannot move the measuring stick.
func lanTimings() core.Timings {
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

// tcpTimings keeps core's default heartbeats (100 ms / 400 ms): every
// heartbeat is a dial on simnet/tcp.go, and the workload's dial budget
// is sized for that cadence.
func tcpTimings() core.Timings {
	return core.Timings{
		BindTimeout: time.Second,
		CallTimeout: time.Second,
		RetryDelay:  50 * time.Millisecond,
	}
}

const (
	students      = 100
	opRead        = "StudentInformation"
	opWrite       = "StudentEnrollment"
	deployTimeout = 2 * time.Second
	setupAttempts = 4
	// requestTimeout is far above any healthy or failing-over reply; a
	// request that reaches it is counted failed.
	requestTimeout = 10 * time.Second
)

// studentDefs is the paper's §3.1 StudentManagement service with a
// second operation under the same WSDL-S annotations, so one b-peer
// group serves a read operation and a write operation.
func studentDefs() *wsdl.Definitions {
	d := wsdl.New("StudentManagement", "http://uma.pt/services/StudentManagement")
	d.DeclareNamespace("sm", ontology.UniversityNS)
	itf := d.AddInterface("StudentManagementUMA")
	for _, op := range []string{opRead, opWrite} {
		itf.AddOperation(op, "sm:StudentInformation",
			[]wsdl.MessageRef{wsdl.In("ID", "sm:StudentID")},
			[]wsdl.MessageRef{wsdl.Out("student", "sm:StudentInfo")},
		)
	}
	return d
}

func studentSignature() ontology.Signature {
	return ontology.Signature{
		Action:  ontology.ConceptStudentInformation,
		Inputs:  []string{ontology.ConceptStudentID},
		Outputs: []string{ontology.ConceptStudentInfo},
	}
}

// groupQoS is the profile every group advertises.
var groupQoS = qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99}

func studentID(i int) string { return fmt.Sprintf("S%04d", 1+i%students) }

// requestBody carries the student ID and the request's own ID; the
// request ID doubles as the idempotency key, which is how the handlers
// can count executions per key.
func requestBody(op, id, req string) []byte {
	return []byte("<" + op + "><StudentID>" + id + "</StudentID><Req>" + req + "</Req></" + op + ">")
}

func element(payload []byte, name string) string {
	open, end := "<"+name+">", "</"+name+">"
	i := bytes.Index(payload, []byte(open))
	if i < 0 {
		return ""
	}
	rest := payload[i+len(open):]
	j := bytes.Index(rest, []byte(end))
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}

// replyMatches is the per-reply correctness check: the reply names the
// requested student and echoes the request ID.
func replyMatches(body []byte, id, req string) bool {
	return element(body, "ID") == id && element(body, "Req") == req
}

// oracle is the run's correctness ledger, shared by every handler and
// client of one deployment.
type oracle struct {
	mu sync.Mutex
	// exec counts handler executions per request ID (writes only).
	exec map[string]int
	// acked holds the request IDs of writes whose correct reply reached
	// the client.
	acked map[string]struct{}
	// reads counts balanced reads per serving replica address; stale
	// counts those that observed a sequence older than their read index.
	reads map[string]int64
	stale int64
}

func newOracle() *oracle {
	return &oracle{exec: map[string]int{}, acked: map[string]struct{}{}, reads: map[string]int64{}}
}

func (o *oracle) executed(req string) {
	o.mu.Lock()
	o.exec[req]++
	o.mu.Unlock()
}

func (o *oracle) ack(req string) {
	o.mu.Lock()
	o.acked[req] = struct{}{}
	o.mu.Unlock()
}

func (o *oracle) observeRead(replica string, readIndex, readSeq uint64) {
	o.mu.Lock()
	o.reads[replica]++
	if readSeq < readIndex {
		o.stale++
	}
	o.mu.Unlock()
}

// verdict reports exactly-once and staleness violations.
type verdict struct {
	duplicates int   // request IDs executed more than once
	lost       int   // acked writes that never executed
	stale      int64 // reads older than their read index
}

func (v verdict) ok() bool { return v.duplicates == 0 && v.lost == 0 && v.stale == 0 }

func (o *oracle) verdict() verdict {
	o.mu.Lock()
	defer o.mu.Unlock()
	v := verdict{stale: o.stale}
	for _, n := range o.exec {
		if n > 1 {
			v.duplicates++
		}
	}
	for req := range o.acked {
		if o.exec[req] == 0 {
			v.lost++
		}
	}
	return v
}

// followerShare is the share of balanced reads served by a replica
// other than coord.
func (o *oracle) followerShare(coord string) float64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	var total, follower int64
	for addr, n := range o.reads {
		total += n
		if addr != coord {
			follower += n
		}
	}
	return ratio(float64(follower), float64(total))
}

// studentHandler is the benchmark's own b-peer handler: look the
// student up in a product backend store (which also supplies the
// configured service time) and echo the request ID. extra is appended
// inside the reply (the cold-discovery groups name themselves there).
func studentHandler(o *oracle, store backend.StudentStore, extra string) bpeer.Handler {
	return bpeer.HandlerFunc(func(_ context.Context, op string, payload []byte) ([]byte, error) {
		id, req := element(payload, "StudentID"), element(payload, "Req")
		if id == "" || req == "" {
			return nil, fmt.Errorf("bad request %q", payload)
		}
		if op != opRead {
			o.executed(req)
		}
		rec, err := store.Student(id)
		if err != nil {
			return nil, err
		}
		var b strings.Builder
		b.WriteString("<StudentInfo><ID>")
		b.WriteString(rec.ID)
		b.WriteString("</ID><Name>")
		b.WriteString(rec.Name)
		b.WriteString("</Name><Program>")
		b.WriteString(rec.Program)
		b.WriteString("</Program><Email>")
		b.WriteString(rec.Email)
		b.WriteString("</Email><Source>")
		b.WriteString(rec.Source)
		b.WriteString("</Source><Req>")
		b.WriteString(req)
		b.WriteString("</Req>")
		b.WriteString(extra)
		b.WriteString("</StudentInfo>")
		return []byte(b.String()), nil
	})
}

// wireCounter accounts transport messages the way simnet.Network does
// (Message.Size at send time), for transports that keep no Stats.
type wireCounter struct {
	mu       sync.Mutex
	perProto map[string]simnet.ProtoStats
}

func (c *wireCounter) record(proto string, size int) {
	c.mu.Lock()
	ps := c.perProto[proto]
	ps.Messages++
	ps.Bytes += int64(size)
	c.perProto[proto] = ps
	c.mu.Unlock()
}

func (c *wireCounter) snapshot() map[string]simnet.ProtoStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]simnet.ProtoStats, len(c.perProto))
	for k, v := range c.perProto {
		out[k] = v
	}
	return out
}

type countingTransport struct {
	simnet.Transport
	c *wireCounter
}

func (t countingTransport) Send(to string, msg simnet.Message) error {
	msg.Src, msg.Dst = t.Addr(), to
	size := msg.Size()
	err := t.Transport.Send(to, msg)
	if err == nil {
		t.c.record(msg.Proto, size)
	}
	return err
}

// env is one deployed system under test plus the client side.
type env struct {
	net       *simnet.Network // nil on TCP
	counter   *wireCounter    // nil on simnet
	transport core.TransportFactory
	dep       *core.Deployment
	group     *core.Group
	svc       *core.Service
	oracle    *oracle

	httpSrv *http.Server
	httpErr chan error
	client  *soap.Client

	reqSeq atomic.Int64
	prefix string

	// failures keeps the first few failed requests' causes for the
	// run's notes.
	failMu   sync.Mutex
	failures []string

	// direct sends request i below SOAP (Service.Invoke, or a warm
	// proxy where the workload has no service); the per-layer run times
	// it for core.service_invoke_p50_ms.
	direct func(i int) bool
	// matchHits.. accumulate the cache counters of proxies the workload
	// creates and closes per operation (cold discovery).
	matchHits, matchMisses, indexHits, indexMisses uint64
	// crashStats is the anatomy of the crashes the workload injected;
	// nil when it injects none.
	crashStats *crashStats
	// cleanup closes, after the deployment, what it does not own:
	// probe proxies and (on TCP) every endpoint the factory opened.
	cleanup []func()
}

// cacheStats returns the semantic match cache and discovery index hit
// ratios seen by the workload's proxies.
func (e *env) cacheStats() (match, index float64) {
	mh, mm, ih, im := e.matchHits, e.matchMisses, e.indexHits, e.indexMisses
	if e.svc != nil {
		m, d := e.svc.Proxy().MatchCacheStats(), e.svc.Proxy().DiscoveryStats()
		mh, mm, ih, im = m.Hits, m.Misses, d.Hits, d.Misses
	}
	return ratio(float64(mh), float64(mh+mm)), ratio(float64(ih), float64(ih+im))
}

func (e *env) noteFailure(req string, err error, fault *soap.Fault, body []byte) {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	if len(e.failures) >= 5 {
		return
	}
	switch {
	case err != nil:
		e.failures = append(e.failures, fmt.Sprintf("%s: %v", req, err))
	case fault != nil:
		e.failures = append(e.failures, fmt.Sprintf("%s: fault %s", req, fault.Reason))
	default:
		e.failures = append(e.failures, fmt.Sprintf("%s: wrong body %q", req, body))
	}
}

// wire snapshots per-protocol traffic since the deployment started.
func (e *env) wire() map[string]simnet.ProtoStats {
	if e.net != nil {
		return e.net.Stats().PerProto
	}
	return e.counter.snapshot()
}

func (e *env) close() {
	if e.httpSrv != nil {
		_ = e.httpSrv.Close()
		<-e.httpErr
		e.client.HTTPClient.CloseIdleConnections()
	}
	if e.dep != nil {
		_ = e.dep.Close()
	}
	for _, f := range e.cleanup {
		f()
	}
	if e.net != nil {
		_ = e.net.Close()
	}
}

// newReq mints a request ID unique within the deployment.
func (e *env) newReq() string {
	return e.prefix + "-" + strconv.FormatInt(e.reqSeq.Add(1), 10)
}

// soapCall sends one request over SOAP/HTTP and checks the reply.
func (e *env) soapCall(op, id string) bool {
	req := e.newReq()
	ctx, cancel := keyedCtx(req)
	defer cancel()
	reply, err := e.client.CallRaw(ctx, op, requestBody(op, id, req))
	if err != nil {
		e.noteFailure(req, err, nil, nil)
		return false
	}
	if reply.Fault != nil || !replyMatches(reply.BodyXML, id, req) {
		e.noteFailure(req, nil, reply.Fault, reply.BodyXML)
		return false
	}
	if op != opRead {
		e.oracle.ack(req)
	}
	return true
}

// serveHTTP mounts the service's SOAP handler on a loopback listener
// and builds a client capped at conns connections.
func (e *env) serveHTTP(conns int) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("http listen: %w", err)
	}
	e.httpSrv = &http.Server{Handler: e.svc.Handler()}
	e.httpErr = make(chan error, 1)
	go func() { e.httpErr <- e.httpSrv.Serve(ln) }()
	e.client = &soap.Client{
		Endpoint: "http://" + ln.Addr().String() + "/soap",
		HTTPClient: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     conns,
				MaxIdleConnsPerHost: conns,
				DisableCompression:  true,
			},
		},
	}
	return nil
}

// studentEnvOpts selects the substrate and group shape of the three
// SOAP-fronted workloads.
type studentEnvOpts struct {
	tcp          bool
	timings      core.Timings
	backendDelay time.Duration
	readOnlyOps  []string
	warmup       []warmReq
	tracing      bool
	// conns caps the client's HTTP connections; zero selects httpConns.
	conns int
}

type warmReq struct {
	op string
	id string
}

// warmups builds the fixed warm-up list of a set-up: n requests, all
// writes, or with writeEvery > 0 one write in every writeEvery and
// reads between them.
func warmups(n, writeEvery int) []warmReq {
	out := make([]warmReq, n)
	for i := range out {
		out[i] = warmReq{op: opWrite, id: studentID(i)}
		if writeEvery > 0 && i%writeEvery != 0 {
			out[i].op = opRead
		}
	}
	return out
}

// traceCapacity holds every span of a traced window (about ten spans a
// request at a few hundred requests a second for ten seconds).
const traceCapacity = 1 << 17

// newDeployment starts the substrate and the rendezvous.
func newDeployment(e *env, seed int64, tcp bool, timings core.Timings, tracing bool) error {
	var transport core.TransportFactory
	if tcp {
		e.counter = &wireCounter{perProto: map[string]simnet.ProtoStats{}}
		inner := core.TCPTransport("127.0.0.1:0")
		var mu sync.Mutex
		transport = func(name string) (simnet.Transport, error) {
			tr, err := inner(name)
			if err != nil {
				return nil, err
			}
			// A DeployGroup that gives up leaves its replicas running
			// and unreachable through the Deployment; on real sockets
			// they would heartbeat for the rest of the process. Closing
			// every endpoint this deployment opened silences them.
			mu.Lock()
			e.cleanup = append(e.cleanup, func() { _ = tr.Close() })
			mu.Unlock()
			return countingTransport{Transport: tr, c: e.counter}, nil
		}
	} else {
		e.net = simnet.NewNetwork(simnet.WithLatency(simnet.NewLANModel(seed+1)), simnet.WithSeed(seed))
		transport = core.SimulatedTransport(e.net)
	}
	e.transport = transport
	dep, err := core.NewDeployment(core.Config{
		Transport:     transport,
		Seed:          seed,
		Timings:       timings,
		Tracing:       tracing,
		TraceCapacity: traceCapacity,
	})
	if err != nil {
		return err
	}
	e.dep = dep
	return nil
}

func deployGroup(e *env, spec core.GroupSpec) (*core.Group, error) {
	ctx, cancel := context.WithTimeout(context.Background(), deployTimeout)
	defer cancel()
	return e.dep.DeployGroup(ctx, spec)
}

// setupStudentEnv deploys network + rendezvous + the 3-replica student
// group + the SOAP service + its HTTP listener and sends the warm-up
// requests. The caller times it; everything in here is set-up.
func setupStudentEnv(seed int64, opts studentEnvOpts) (*env, error) {
	e := &env{oracle: newOracle(), prefix: fmt.Sprintf("q%d", seed)}
	if err := newDeployment(e, seed, opts.tcp, opts.timings, opts.tracing); err != nil {
		e.close()
		return nil, err
	}
	records := backend.SeedStudents(students, seed)
	replicas := make([]core.ReplicaSpec, 3)
	for i := range replicas {
		replicas[i] = core.ReplicaSpec{
			Handler: studentHandler(e.oracle, backend.NewOperationalDB(records, opts.backendDelay), ""),
		}
	}
	var err error
	e.group, err = deployGroup(e, core.GroupSpec{
		Name:        "StudentManagement",
		Signature:   studentSignature(),
		QoS:         groupQoS,
		ReadOnlyOps: opts.readOnlyOps,
		Replicas:    replicas,
	})
	if err != nil {
		e.close()
		return nil, err
	}
	e.svc, err = e.dep.DeployService(studentDefs(), core.ServiceOptions{ReadObserver: e.oracle.observeRead})
	if err != nil {
		e.close()
		return nil, err
	}
	conns := opts.conns
	if conns == 0 {
		conns = httpConns // nproc is 2
	}
	if err := e.serveHTTP(conns); err != nil {
		e.close()
		return nil, err
	}
	e.direct = func(i int) bool {
		req, id := e.newReq(), studentID(i)
		ctx, cancel := keyedCtx(req)
		defer cancel()
		out, err := e.svc.Invoke(ctx, opWrite, requestBody(opWrite, id, req))
		return err == nil && replyMatches(out, id, req)
	}
	for _, w := range opts.warmup {
		if !e.soapCall(w.op, w.id) {
			e.close()
			return nil, fmt.Errorf("warm-up %s %s failed", w.op, w.id)
		}
	}
	return e, nil
}

// errNotReady recognises the ROADMAP's formation wedge: a group that
// has not agreed on a coordinator when the deploy context expires. Only
// that failure is retried.
func errNotReady(err error) bool {
	return errors.Is(err, context.DeadlineExceeded)
}

// setupTimed runs setup until it succeeds (at most setupAttempts,
// retrying only a wedged formation) and returns the duration of the
// successful attempt alone, plus how many attempts were thrown away.
func setupTimed(setup func() (*env, error)) (e *env, seconds float64, retries int, err error) {
	for attempt := 0; attempt < setupAttempts; attempt++ {
		start := time.Now()
		e, err = setup()
		if err == nil {
			return e, time.Since(start).Seconds(), retries, nil
		}
		if !errNotReady(err) {
			return nil, 0, retries, err
		}
		retries++
	}
	return nil, 0, retries, fmt.Errorf("set-up failed %d times: %w", setupAttempts, err)
}
