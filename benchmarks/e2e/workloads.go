package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"whisper/internal/backend"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/proxy"
)

// workload is one traffic mix: how to deploy the system for it and how
// to drive it for a measured window.
type workload struct {
	name string
	why  string
	// setup deploys and warms the system; tracing selects
	// core.Config.Tracing.
	setup func(seed int64, tracing bool) (*env, error)
	// drive offers load for the window and returns what the client saw.
	drive func(e *env, seed int64, window time.Duration) (*driveResult, error)
	// tcp marks the real-socket workload (TIME_WAIT guard, dial budget).
	tcp bool
	// soap marks workloads whose client speaks SOAP/HTTP.
	soap bool
	// inputs are the semantic inputs the per-layer probes reuse.
	inputs func() probeInputs
}

func studentInputs(backendDelay time.Duration) func() probeInputs {
	return func() probeInputs {
		sig := []ontology.Signature{studentSignature()}
		return probeInputs{advertised: sig, requested: sig, backendDelay: backendDelay}
	}
}

// driveResult is one measured window.
type driveResult struct {
	load *loadResult
	// crashes and rebinds (the service proxy's re-bindings during the
	// window) are filled by the failover workload only.
	crashes []crashRecord
	rebinds int64
}

var workloads = []workload{
	{
		name: "journal_lan",
		why: "steady-state journaled writes (paper §5 RTT): closed loop, 2 clients, SOAP/HTTP to a 3-replica " +
			"PREPARE/COMMIT group on the LAN model; replog, bpeer journal, pipes and SOAP work, discovery is cached",
		setup: func(seed int64, tracing bool) (*env, error) {
			return setupStudentEnv(seed, studentEnvOpts{
				timings: lanTimings(), warmup: warmups(150, 0), tracing: tracing,
			})
		},
		drive:  driveJournal,
		soap:   true,
		inputs: studentInputs(0),
	},
	{
		name: "mixed_tcp",
		why: "follower reads beside journaled writes on real sockets: open loop at 25 rps, 70% reads, loopback " +
			"TCP with 10 ms backend time; exercises readbalance and simnet/tcp.go dial-per-send",
		setup: func(seed int64, tracing bool) (*env, error) {
			return setupStudentEnv(seed, studentEnvOpts{
				tcp: true, timings: tcpTimings(), backendDelay: mixedBackend,
				readOnlyOps: []string{opRead}, warmup: warmups(60, 3), tracing: tracing,
			})
		},
		drive:  driveMixed,
		tcp:    true,
		soap:   true,
		inputs: studentInputs(mixedBackend),
	},
	{
		name: "discover_cold",
		why: "every op pays remote discovery, uncached semantic match over 64 advertisements, bind and call on a " +
			"fresh proxy, no journal: ontology, matchcache, p2p discovery and advcodec do the work",
		setup: setupDiscover,
		drive: driveDiscover,
		inputs: func() probeInputs {
			cat := coldPlan()
			in := probeInputs{advertised: cat.groups}
			for _, r := range append(append([]coldRequest(nil), cat.exact...), cat.subsumed...) {
				in.requested = append(in.requested, r.sig)
			}
			return in
		},
	},
	{
		name: "failover_lan",
		why: "worst-case RTT (paper §5): open loop at 50 rps while the coordinator is crashed and restarted on a " +
			"seeded schedule; p90 sits in the outage: detector + Bully election + journal barrier + re-bind",
		setup: func(seed int64, tracing bool) (*env, error) {
			// The circuit breaker would shed requests after five failed
			// attempts and turn the outage into fast failures; with it
			// off every request rides the proxy's backoff through the
			// election, so the outage shows as latency and nothing fails.
			//
			// The proxy's default backoff doubles from 50 ms to 800 ms,
			// so whether a waiting request retries just before or just
			// after the new coordinator is ready moves its latency by
			// up to 600 ms. A flat 150-300 ms backoff (seven retries,
			// at least 975 ms in total) keeps every recovery within one
			// retry gap of the election.
			timings := lanTimings()
			timings.BreakerThreshold = -1
			timings.RetryDelay = 150 * time.Millisecond
			timings.RetryMaxDelay = 300 * time.Millisecond
			return setupStudentEnv(seed, studentEnvOpts{
				timings: timings, warmup: warmups(150, 0), tracing: tracing, conns: failoverConns,
			})
		},
		drive:  driveFailover,
		soap:   true,
		inputs: studentInputs(0),
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// --- journal_lan ---------------------------------------------------------

const journalClients = 2

func driveJournal(e *env, seed int64, window time.Duration) (*driveResult, error) {
	table := seededIndices(seed, students)
	load := runClosedLoop(wallClock{}, journalClients, window, func(_, i int) (bool, time.Duration) {
		return e.soapCall(opWrite, studentID(table[i%len(table)])), 0
	})
	return &driveResult{load: load}, nil
}

// --- mixed_tcp -----------------------------------------------------------

const (
	mixedRate   = 25 // requests per second
	mixedWrites = 3  // of every mixBlock (10) requests; the rest are follower reads
	httpConns   = 2
	// mixedBackend is the handler's service time. Loopback TCP latency
	// drifts by about half a millisecond between runs on a shared box;
	// against 10 ms of backend time that is under a twentieth of p50.
	mixedBackend = 10 * time.Millisecond
)

func driveMixed(e *env, seed int64, window time.Duration) (*driveResult, error) {
	table := seededIndices(seed, students)
	writes := seededMix(seed+1, mixedWrites)
	n := int(window.Seconds() * mixedRate)
	load := runOpenLoop(wallClock{}, httpConns, n, time.Second/mixedRate, func(_, i int) (bool, time.Duration) {
		op := opRead
		if writes[i%len(writes)] {
			op = opWrite
		}
		return e.soapCall(op, studentID(table[i%len(table)])), 0
	})
	return &driveResult{load: load}, nil
}

// --- discover_cold -------------------------------------------------------

const coldGroups = 64

// coldRequest is one request signature and the groups whose
// advertisement satisfies it at MatchSubsume or better.
type coldRequest struct {
	sig        ontology.Signature
	acceptable map[string]bool
}

// The cold-discovery catalogue is fixed (seed 1): the deployment is
// configuration, only the request stream is the seeded input.
type coldCatalogue struct {
	groups []ontology.Signature
	// exact requests copy an advertised signature; subsumed requests ask
	// for an action concept no group advertises, so only the reasoner's
	// subsumption (advertised action ⊒ requested) can reach a group.
	exact    []coldRequest
	subsumed []coldRequest
}

func uni(name string) string { return ontology.UniversityNS + "#" + name }
func b2b(name string) string { return ontology.B2BNS + "#" + name }

// coldPlan builds the catalogue once per process; the acceptable-group
// sets are the oracle's, computed with the benchmark's own reasoner.
var coldPlan = sync.OnceValue(buildColdCatalogue)

func buildColdCatalogue() coldCatalogue {
	type domain struct {
		actions, inputs, outputs []string
	}
	domains := []domain{
		{
			actions: []string{uni("StudentInformation"), uni("StudentLookup"), uni("EnrollmentManagement"),
				uni("GradeSubmission"), uni("AcademicAction")},
			inputs: []string{uni("StudentID"), uni("MatriculationNumber"), uni("EmployeeID"), uni("Identifier")},
			outputs: []string{uni("StudentInfo"), uni("StudentRecord"), uni("ContactInfo"), uni("EnrollmentInfo"),
				uni("TranscriptInfo"), uni("GradeReport"), uni("EmployeeInfo"), uni("PersonInfo")},
		},
		{
			actions: []string{b2b("ClaimProcessing"), b2b("LoanApproval"), b2b("CarePlanning"), b2b("BusinessAction")},
			inputs:  []string{b2b("ClaimID"), b2b("PatientID"), b2b("Identifier")},
			outputs: []string{b2b("ClaimForm"), b2b("ClaimStatus"), b2b("ClaimSettlement"), b2b("LoanApplication"),
				b2b("CreditRequest"), b2b("LoanDecision"), b2b("LoanOffer"), b2b("MedicalRecord"),
				b2b("TreatmentPlan"), b2b("BusinessDocument")},
		},
	}
	// Leaf actions that are requested but never advertised.
	requestOnly := map[string]string{
		uni("StudentInformation"): uni("TranscriptRetrieval"),
		uni("StudentLookup"):      uni("TranscriptRetrieval"),
		b2b("ClaimProcessing"):    b2b("ClaimAdjudication"),
		b2b("LoanApproval"):       b2b("CreditScoring"),
	}
	var all []ontology.Signature
	for _, d := range domains {
		for _, a := range d.actions {
			for _, in := range d.inputs {
				for _, out := range d.outputs {
					all = append(all, ontology.Signature{Action: a, Inputs: []string{in}, Outputs: []string{out}})
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	cat := coldCatalogue{groups: all[:coldGroups]}

	reasoner := ontology.NewReasoner(ontology.Combined())
	request := func(sig ontology.Signature) coldRequest {
		r := coldRequest{sig: sig, acceptable: map[string]bool{}}
		for g, adv := range cat.groups {
			if reasoner.MatchSignature(adv, sig).Degree.Satisfies(ontology.MatchSubsume) {
				r.acceptable[coldGroupName(g)] = true
			}
		}
		return r
	}
	for _, g := range cat.groups {
		cat.exact = append(cat.exact, request(g))
		if leaf, ok := requestOnly[g.Action]; ok {
			s := g.Clone()
			s.Action = leaf
			cat.subsumed = append(cat.subsumed, request(s))
		}
	}
	return cat
}

const coldSubsumedShare = 0.25

// coldRequests draws the seeded request stream from the catalogue.
func coldRequests(seed int64) []coldRequest {
	cat := coldPlan()
	rng := rand.New(rand.NewSource(seed))
	out := make([]coldRequest, inputTableSize)
	for i := range out {
		if rng.Float64() < coldSubsumedShare {
			out[i] = cat.subsumed[rng.Intn(len(cat.subsumed))]
		} else {
			out[i] = cat.exact[rng.Intn(len(cat.exact))]
		}
	}
	return out
}

func coldGroupName(g int) string { return fmt.Sprintf("G%02d", g) }

const (
	coldWarmups       = 60
	coldDeployWorkers = 16
)

func setupDiscover(seed int64, tracing bool) (*env, error) {
	cat := coldPlan()
	e := &env{oracle: newOracle(), prefix: fmt.Sprintf("q%d", seed)}
	// 64 groups renewing their membership and advertisement every 500 ms
	// would put 500 background messages a second beside 90 operations a
	// second; a 5 s lease keeps msgs_per_op about the cold path.
	timings := lanTimings()
	timings.LeaseInterval = 5 * time.Second
	timings.RendezvousLease = 15 * time.Second
	if err := newDeployment(e, seed, false, timings, tracing); err != nil {
		e.close()
		return nil, err
	}
	records := backend.SeedStudents(students, seed)
	// The groups are independent single-replica deployments; forming
	// them a few at a time keeps set-up about the election timeout
	// rather than 64 of them.
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
		slots = make(chan struct{}, coldDeployWorkers)
	)
	for g, sig := range cat.groups {
		wg.Add(1)
		slots <- struct{}{}
		go func(g int, sig ontology.Signature) {
			defer wg.Done()
			defer func() { <-slots }()
			name := coldGroupName(g)
			_, err := deployGroup(e, core.GroupSpec{
				Name:      name,
				Signature: sig,
				QoS:       groupQoS,
				NoJournal: true,
				Count:     1,
				Handler: studentHandler(e.oracle, backend.NewOperationalDB(records, 0),
					"<Group>"+name+"</Group>"),
			})
			if err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(g, sig)
	}
	wg.Wait()
	if first != nil {
		e.close()
		return nil, first
	}
	warm := coldRequests(1)
	var warmProxy *proxy.SWSProxy
	e.direct = func(i int) bool {
		if warmProxy == nil {
			p, err := e.dep.NewProxy("warm-"+e.newReq(), core.ProxyOptions{})
			if err != nil {
				return false
			}
			warmProxy = p
			e.cleanup = append(e.cleanup, func() { _ = p.Close() })
		}
		r, req, id := warm[i%len(warm)], e.newReq(), studentID(i)
		ctx, cancel := keyedCtx(req)
		defer cancel()
		out, err := warmProxy.Invoke(ctx, r.sig, opWrite, requestBody(opWrite, id, req))
		return err == nil && replyMatches(out, id, req) && r.acceptable[element(out, "Group")]
	}
	for i := 0; i < coldWarmups; i++ {
		if ok, _ := e.coldCall(warm[i], studentID(i)); !ok {
			e.close()
			return nil, fmt.Errorf("warm-up cold call %d failed", i)
		}
	}
	return e, nil
}

// coldCall creates a fresh proxy, times one Invoke for the request's
// signature, and closes the proxy. Only the Invoke is timed: proxy
// construction is set-up a real service pays once.
func (e *env) coldCall(r coldRequest, id string) (bool, time.Duration) {
	req := e.newReq()
	p, err := e.dep.NewProxy("cold-"+req, core.ProxyOptions{})
	if err != nil {
		return false, 0
	}
	defer func() { _ = p.Close() }()
	ctx, cancel := keyedCtx(req)
	defer cancel()
	start := time.Now()
	out, err := p.Invoke(ctx, r.sig, opWrite, requestBody(opWrite, id, req))
	timed := time.Since(start)
	m, d := p.MatchCacheStats(), p.DiscoveryStats()
	e.matchHits, e.matchMisses = e.matchHits+m.Hits, e.matchMisses+m.Misses
	e.indexHits, e.indexMisses = e.indexHits+d.Hits, e.indexMisses+d.Misses
	if err != nil || !replyMatches(out, id, req) || !r.acceptable[element(out, "Group")] {
		e.noteFailure(req, err, nil, out)
		return false, timed
	}
	e.oracle.ack(req)
	return true, timed
}

func driveDiscover(e *env, seed int64, window time.Duration) (*driveResult, error) {
	reqs := coldRequests(seed)
	table := seededIndices(seed+1, students)
	load := runClosedLoop(wallClock{}, 1, window, func(_, i int) (bool, time.Duration) {
		return e.coldCall(reqs[i%len(reqs)], studentID(table[i%len(table)]))
	})
	return &driveResult{load: load}, nil
}

// --- failover_lan --------------------------------------------------------

const (
	failoverRate = 50 // requests per second
	// failoverConns is the HTTP connection (and generator goroutine)
	// count: enough for every request that falls due during one outage
	// to be in flight, each on its own retry schedule. With two, both
	// sit in backoff, the rest queue behind them, and the luck of two
	// retry timers decides the length of the whole outage. The
	// goroutines sleep in backoff; they do not compete for the two CPUs.
	failoverConns = 32
	// One crash every faultPeriod; the victim stays down faultDown and
	// is back in the group well before the next crash.
	faultPeriod = 2400 * time.Millisecond
	faultJitter = 300 * time.Millisecond
	faultDown   = 700 * time.Millisecond
)

// crashRecord is the anatomy of one injected coordinator crash.
type crashRecord struct {
	at time.Time
	// detect is crash → a surviving replica names a new coordinator.
	detect time.Duration
	// outage is crash → first correct reply to a request that fell due
	// after the crash (zero when no such reply arrived).
	outage time.Duration
}

func driveFailover(e *env, seed int64, window time.Duration) (*driveResult, error) {
	table := seededIndices(seed, students)
	schedule := faultSchedule(seed+1, window, faultPeriod, faultJitter, faultDown)
	n := int(window.Seconds() * failoverRate)

	rebinds0 := e.svc.Proxy().Rebinds()
	start := time.Now()
	var (
		crashes   []crashRecord
		injectErr error
		done      = make(chan struct{})
	)
	// The injector follows the schedule and never waits for the system:
	// the victim is restarted on time whether or not the survivors have
	// elected a successor, so a wedged election (ROADMAP "fix first")
	// costs one long outage instead of the rest of the run.
	go func() {
		defer close(done)
		for _, f := range schedule {
			time.Sleep(time.Until(start.Add(f.crashAt)))
			rec, victim, err := crashCoordinator(e.group, start.Add(f.restartAt))
			if err != nil {
				injectErr = err
				return
			}
			crashes = append(crashes, rec)
			time.Sleep(time.Until(start.Add(f.restartAt)))
			ctx, cancel := context.WithTimeout(context.Background(), deployTimeout)
			err = e.group.RestartPeer(ctx, victim)
			cancel()
			if err != nil {
				injectErr = fmt.Errorf("restart %s: %w", victim, err)
				return
			}
		}
	}()
	load := runOpenLoop(wallClock{}, failoverConns, n, time.Second/failoverRate, func(_, i int) (bool, time.Duration) {
		return e.soapCall(opWrite, studentID(table[i%len(table)])), 0
	})
	<-done
	if injectErr != nil {
		return nil, injectErr
	}
	// The run is invalid unless the group ends whole and agreed.
	ctx, cancel := context.WithTimeout(context.Background(), deployTimeout)
	defer cancel()
	if err := e.group.WaitReady(ctx); err != nil {
		return nil, fmt.Errorf("group did not end with one agreed coordinator: %w", err)
	}
	if got := len(e.group.RunningPeers()); got != 3 {
		return nil, fmt.Errorf("group ended with %d running replicas, want 3", got)
	}
	fillOutages(crashes, load)
	return &driveResult{load: load, crashes: crashes, rebinds: e.svc.Proxy().Rebinds() - rebinds0}, nil
}

// crashCoordinator crashes the current coordinator (keeping it in the
// group so it can be restarted) and watches, until `until`, for a
// survivor to name a successor; detect stays zero if none does.
func crashCoordinator(g *core.Group, until time.Time) (crashRecord, string, error) {
	old := g.Coordinator()
	victim := ""
	for _, p := range g.RunningPeers() {
		if p.Addr() == old {
			victim = p.Name()
		}
	}
	if victim == "" {
		return crashRecord{}, "", fmt.Errorf("no running coordinator to crash (coordinator=%q)", old)
	}
	if err := g.CrashPeer(victim); err != nil {
		return crashRecord{}, "", err
	}
	rec := crashRecord{at: time.Now()}
	for ; time.Now().Before(until); time.Sleep(time.Millisecond) {
		for _, p := range g.RunningPeers() {
			if c := p.Coordinator(); c != "" && c != old {
				rec.detect = time.Since(rec.at)
				return rec, victim, nil
			}
		}
	}
	return rec, victim, nil
}

// fillOutages derives each crash's outage from the request log.
func fillOutages(crashes []crashRecord, load *loadResult) {
	for c := range crashes {
		var first time.Time
		for i, due := range load.due {
			if due.Before(crashes[c].at) || load.done[i].IsZero() {
				continue
			}
			if first.IsZero() || load.done[i].Before(first) {
				first = load.done[i]
			}
		}
		if !first.IsZero() {
			crashes[c].outage = first.Sub(crashes[c].at)
		}
	}
}
