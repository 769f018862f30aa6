package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/replog"
	"whisper/internal/simnet"
	"whisper/internal/soap"
)

// The outside probes time calls into each layer's public functions from
// the benchmark's own files, on the workload's own inputs. They add no
// span to the program; they are how a later change to one layer points
// at "its" number. `_us`/`_ms` values are medians, `_allocs` values are
// allocations per call.

// timeCalls calls fn n times after a tenth as many warm-up calls and
// returns the median duration in `unit` and the allocations per call.
// fn receives a call index that never repeats, warm-up included.
func timeCalls(n int, unit time.Duration, fn func(i int)) (median, allocs float64) {
	warm := n/10 + 1
	for i := 0; i < warm; i++ {
		fn(i)
	}
	s := sample{vals: make([]float64, 0, n)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(warm + i)
		s.addDuration(time.Since(t), unit)
	}
	runtime.ReadMemStats(&after)
	return s.median(), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeInputs are the semantic inputs of a workload: what its groups
// advertise and what its requests ask for.
type probeInputs struct {
	advertised []ontology.Signature
	requested  []ontology.Signature
	// backendDelay is the workload's handler service time.
	backendDelay time.Duration
}

func sampleReply() []byte {
	return []byte("<StudentInfo><ID>S0001</ID><Name>Maria Silva</Name><Program>Informatics</Program>" +
		"<Email>student1@uma.pt</Email><Source>operational-db</Source><Req>probe-1</Req></StudentInfo>")
}

// pureProbes runs every probe that needs no deployment. It runs before
// the workload deploys anything, so no background goroutine allocates
// under the allocation counts.
func pureProbes(in probeInputs) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }
	body := requestBody(opWrite, "S0001", "probe-1")
	reply := sampleReply()

	// soap: envelope codec and one HTTP round trip to a no-op handler.
	hdr := soap.MessageIDHeaderBlock("probe-1")
	var envelope []byte
	encUS, encAllocs := timeCalls(2000, time.Microsecond, func(int) {
		envelope = soap.EncodeRawWithHeaders(body, hdr)
	})
	var decErr error
	decUS, decAllocs := timeCalls(2000, time.Microsecond, func(int) {
		if _, err := soap.Decode(envelope); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return nil, fmt.Errorf("soap decode probe: %w", decErr)
	}
	add("soap.encode_us", encUS, "us")
	add("soap.decode_us", decUS, "us")
	add("soap.codec_allocs", encAllocs+decAllocs, "count")
	rtUS, err := probeHTTPRoundTrip(body, reply)
	if err != nil {
		return nil, err
	}
	add("soap.http_roundtrip_us", rtUS, "us")

	// ontology: reasoner compilation and one uncached signature match.
	var reasoner *ontology.Reasoner
	buildMS, _ := timeCalls(5, time.Millisecond, func(int) {
		reasoner = ontology.NewReasoner(ontology.Combined())
	})
	matchUS, matchAllocs := timeCalls(5000, time.Microsecond, func(i int) {
		adv := in.advertised[i%len(in.advertised)]
		req := in.requested[(i/len(in.advertised))%len(in.requested)]
		reasoner.MatchSignature(adv, req)
	})
	add("ontology.reasoner_build_ms", buildMS, "ms")
	add("ontology.match_signature_us", matchUS, "us")
	add("ontology.match_signature_allocs", matchAllocs, "count")

	// p2p: the local advertisement index and the advertisement codec.
	p2pMetrics, err := probeDiscoveryIndex(in.advertised)
	if err != nil {
		return nil, err
	}
	out = append(out, p2pMetrics...)

	// bpeer: pipe request/response codec and the benchmark's handler.
	var respXML bytes.Buffer
	respXML.WriteString(`<PeerResponse Status="ok"><Payload>`)
	_ = xml.EscapeText(&respXML, reply)
	respXML.WriteString(`</Payload></PeerResponse>`)
	var codecErr error
	codecUS, codecAllocs := timeCalls(2000, time.Microsecond, func(int) {
		if _, err := bpeer.EncodeRequest(opWrite, body, "probe-1"); err != nil {
			codecErr = err
		}
		if resp, err := bpeer.DecodeResponseFull(respXML.Bytes()); err != nil || !bytes.Equal(resp.Payload, reply) {
			codecErr = fmt.Errorf("decode: %v (payload %q)", err, resp.Payload)
		}
	})
	if codecErr != nil {
		return nil, fmt.Errorf("bpeer codec probe: %w", codecErr)
	}
	add("bpeer.codec_us", codecUS, "us")
	add("bpeer.codec_allocs", codecAllocs, "count")
	handler := studentHandler(newOracle(), backend.NewOperationalDB(backend.SeedStudents(students, 1), in.backendDelay), "")
	handlerUS, _ := timeCalls(50, time.Microsecond, func(int) {
		_, _ = handler.Invoke(context.Background(), opRead, body) // a lookup of S0001 cannot fail
	})
	add("bpeer.handler_us", handlerUS, "us")

	// replog: one coordinator-side journal cycle and one follower apply.
	const cycles = 5000
	warm := cycles/10 + 1
	keys := make([]string, cycles+warm)
	entries := make([]replog.Entry, cycles+warm)
	digest := replog.Digest(body)
	for i := range keys {
		keys[i] = fmt.Sprintf("probe-%d", i)
		entries[i] = replog.Entry{
			Seq: uint64(i + 1), Key: keys[i], Op: opWrite, Digest: digest,
			Origin: "probe", OriginAddr: "probe-addr", Status: replog.StatusCommitted, Reply: reply,
		}
	}
	coordJournal := replog.New("probe", "probe-addr")
	var cycleErr error
	cycleUS, cycleAllocs := timeCalls(cycles, time.Microsecond, func(i int) {
		k := keys[i]
		if res := coordJournal.Begin(k, opWrite, digest); res.Decision != replog.BeginNew {
			cycleErr = fmt.Errorf("begin %s: decision %d", k, res.Decision)
		}
		if err := coordJournal.MarkExecuting(k); err != nil {
			cycleErr = err
		}
		if err := coordJournal.MarkExecuted(k, reply, ""); err != nil {
			cycleErr = err
		}
		if err := coordJournal.MarkCommitted(k); err != nil {
			cycleErr = err
		}
	})
	if cycleErr != nil {
		return nil, fmt.Errorf("replog cycle probe: %w", cycleErr)
	}
	follower := replog.New("follower", "follower-addr")
	applyUS, _ := timeCalls(cycles, time.Microsecond, func(i int) {
		follower.ApplyPrepare(entries[i])
		follower.ApplyCommit(entries[i])
	})
	add("replog.local_cycle_us", cycleUS, "us")
	add("replog.cycle_allocs", cycleAllocs, "count")
	add("replog.apply_us", applyUS, "us")

	// proxy: the response translation core derives from the WSDL.
	translator := &proxy.ElementRenameTranslator{
		ElementForConcept: map[string]string{ontology.ConceptStudentInfo: "StudentInfo"},
	}
	var trErr error
	trUS, _ := timeCalls(2000, time.Microsecond, func(int) {
		if _, err := translator.TranslateResponse(studentSignature(), studentSignature(), reply); err != nil {
			trErr = err
		}
	})
	if trErr != nil {
		return nil, fmt.Errorf("translate probe: %w", trErr)
	}
	add("proxy.translate_us", trUS, "us")

	// simnet: how late the scheduler delivers, and one TCP send.
	late50, late90, err := probeDeliveryLateness()
	if err != nil {
		return nil, err
	}
	add("simnet.delivery_late_p50_us", late50, "us")
	add("simnet.delivery_late_p90_us", late90, "us")
	sendUS, err := probeTCPSend()
	if err != nil {
		return nil, err
	}
	add("simnet.tcp_send_us", sendUS, "us")
	return out, nil
}

// probeHTTPRoundTrip times Client.CallRaw against a Server whose handler
// does nothing: the SOAP/HTTP edge every fronted request pays.
func probeHTTPRoundTrip(body, reply []byte) (float64, error) {
	srv := soap.NewServer()
	srv.Register(opWrite, func(context.Context, []byte) (any, error) { return reply, nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("http probe listen: %w", err)
	}
	httpSrv := &http.Server{Handler: srv}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	client := &soap.Client{
		Endpoint:   "http://" + ln.Addr().String() + "/soap",
		HTTPClient: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxConnsPerHost: httpConns, DisableCompression: true}},
	}
	var callErr error
	us, _ := timeCalls(300, time.Microsecond, func(i int) {
		ctx := replog.ContextWithKey(context.Background(), fmt.Sprintf("probe-%d", i))
		if env, err := client.CallRaw(ctx, opWrite, body); err != nil || env.Fault != nil {
			callErr = fmt.Errorf("call: %v fault %v", err, env)
		}
	})
	_ = httpSrv.Close()
	<-served
	client.HTTPClient.CloseIdleConnections()
	if callErr != nil {
		return 0, fmt.Errorf("http probe: %w", callErr)
	}
	return us, nil
}

// probeDiscoveryIndex publishes the workload's advertisements into a
// stand-alone discovery service and times its local operations.
func probeDiscoveryIndex(sigs []ontology.Signature) ([]metric, error) {
	bpeer.EnsureAdvTypes()
	network := simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()))
	defer func() { _ = network.Close() }()
	port, err := network.NewPort("probe")
	if err != nil {
		return nil, err
	}
	gen := p2p.NewIDGen(1)
	peer := p2p.NewPeer("probe", gen.New(p2p.PeerIDKind), port)
	disco := p2p.NewDiscoveryService(peer)
	peer.Start()
	defer func() { _ = peer.Close() }()

	advs := make([]*bpeer.SemanticAdvertisement, len(sigs))
	for i, sig := range sigs {
		advs[i] = bpeer.NewSemanticAdvertisement(gen.New(p2p.GroupIDKind), coldGroupName(i), sig,
			groupQoS)
	}
	var probeErr error
	pubUS, _ := timeCalls(2000, time.Microsecond, func(i int) {
		if err := disco.Publish(advs[i%len(advs)], 0); err != nil {
			probeErr = err
		}
	})
	localUS, _ := timeCalls(5000, time.Microsecond, func(i int) {
		if len(disco.GetLocalAdvertisements(bpeer.SemanticAdvType, "action", sigs[i%len(sigs)].Action)) == 0 {
			probeErr = fmt.Errorf("exact query found nothing")
		}
	})
	wildUS, _ := timeCalls(2000, time.Microsecond, func(int) {
		if len(disco.GetLocalAdvertisements(bpeer.SemanticAdvType, "", "")) != len(advs) {
			probeErr = fmt.Errorf("wildcard query lost advertisements")
		}
	})
	codecUS, codecAllocs := timeCalls(2000, time.Microsecond, func(i int) {
		raw, err := advs[i%len(advs)].MarshalAdv()
		if err == nil {
			_, err = p2p.ParseAdvertisement(raw)
		}
		if err != nil {
			probeErr = err
		}
	})
	if probeErr != nil {
		return nil, fmt.Errorf("discovery probe: %w", probeErr)
	}
	return []metric{
		{"p2p.publish_us", pubUS, "us"},
		{"p2p.local_query_us", localUS, "us"},
		{"p2p.wildcard_query_us", wildUS, "us"},
		{"p2p.adv_codec_us", codecUS, "us"},
		{"p2p.adv_codec_allocs", codecAllocs, "count"},
	}, nil
}

// lanOneWay is the fixed one-way delay of the lateness probe: the LAN
// model's base plus its mean jitter.
const lanOneWay = 275 * time.Microsecond

// probeDeliveryLateness measures how much later than modelled a
// message reaches the receiving port: the noise floor under every LAN
// latency.
func probeDeliveryLateness() (p50, p90 float64, err error) {
	network := simnet.NewNetwork(simnet.WithLatency(simnet.FixedLatency(lanOneWay)))
	defer func() { _ = network.Close() }()
	a, err := network.NewPort("a")
	if err != nil {
		return 0, 0, err
	}
	b, err := network.NewPort("b")
	if err != nil {
		return 0, 0, err
	}
	var late sample
	payload := make([]byte, 256)
	for i := 0; i < 300; i++ {
		if err := a.Send("b", simnet.Message{Proto: "probe", Kind: "ping", Payload: payload}); err != nil {
			return 0, 0, fmt.Errorf("lateness probe: %w", err)
		}
		msg := <-b.Recv()
		late.addDuration(time.Since(msg.SentAt)-lanOneWay, time.Microsecond)
		time.Sleep(time.Millisecond)
	}
	p50, _ = late.percentile(50)
	p90, _ = late.percentile(90)
	return p50, p90, nil
}

// probeTCPSend times TCPTransport.Send (dial, gob-encode, close).
func probeTCPSend() (float64, error) {
	a, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	b, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		_ = a.Close()
		return 0, err
	}
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range b.Recv() {
		}
	}()
	msg := simnet.Message{Proto: "probe", Kind: "ping", Payload: make([]byte, 256)}
	var sendErr error
	us, _ := timeCalls(150, time.Microsecond, func(int) {
		if err := a.Send(b.Addr(), msg); err != nil {
			sendErr = err
		}
	})
	_ = a.Close()
	_ = b.Close()
	<-drained
	if sendErr != nil {
		return 0, fmt.Errorf("tcp send probe: %w", sendErr)
	}
	return us, nil
}

// --- probes on the workload's own deployment ---------------------------

const (
	probeInvokes    = 150
	probeColdTrials = 20
)

func keyedCtx(key string) (context.Context, context.CancelFunc) {
	return context.WithTimeout(replog.ContextWithKey(context.Background(), key), requestTimeout)
}

// deploymentProbes runs after the measured window, on the deployment
// the window used: the paths below SOAP, cold and warm discovery, the
// journal's cost against a NoJournal twin, and one coordinator crash.
func deploymentProbes(e *env, in probeInputs) ([]metric, error) {
	var out []metric
	add := func(name string, v float64, unit string) { out = append(out, metric{name, v, unit}) }

	// Below SOAP: the workload's own direct path, sequentially.
	var direct sample
	for i := 0; i < probeInvokes; i++ {
		start := time.Now()
		if !e.direct(i) {
			return nil, fmt.Errorf("direct invoke %d failed", i)
		}
		direct.addDuration(time.Since(start), time.Millisecond)
	}
	add("core.service_invoke_p50_ms", direct.median(), "ms")

	// Fresh proxy: discovery, then a bound call, then warm discovery.
	var cold, group, warm sample
	for k := 0; k < probeColdTrials; k++ {
		sig := in.requested[k%len(in.requested)]
		req := e.newReq()
		p, err := e.dep.NewProxy("probe-"+req, core.ProxyOptions{})
		if err != nil {
			return nil, err
		}
		ctx, cancel := keyedCtx(req)
		start := time.Now()
		matches, err := p.FindPeerGroupAdv(ctx, sig)
		cold.addDuration(time.Since(start), time.Millisecond)
		if err == nil {
			start = time.Now()
			_, err = p.InvokeGroup(ctx, matches[0].Adv, opWrite, requestBody(opWrite, "S0001", req))
			group.addDuration(time.Since(start), time.Millisecond)
		}
		for i := 0; err == nil && i < 25; i++ {
			start = time.Now()
			_, err = p.FindPeerGroupAdv(ctx, sig)
			warm.addDuration(time.Since(start), time.Microsecond)
		}
		cancel()
		_ = p.Close()
		if err != nil {
			return nil, fmt.Errorf("fresh-proxy probe: %w", err)
		}
	}
	add("proxy.find_cold_ms", cold.median(), "ms")
	add("proxy.invoke_group_ms", group.median(), "ms")
	add("proxy.find_warm_us", warm.median(), "us")

	// One wildcard remote query against the rendezvous, below the proxy.
	remoteMS, err := probeRemoteGet(e)
	if err != nil {
		return nil, err
	}
	add("p2p.remote_get_ms", remoteMS, "ms")

	// Journal cost: a journaled group against a NoJournal twin, same
	// deployment, same handler, same proxy.
	twins, err := deployTwins(e)
	if err != nil {
		return nil, err
	}
	add("bpeer.journal_overhead_ms", twins.journaledMS-twins.plainMS, "ms")
	add("replog.msgs_per_write", twins.journaledMsgs-twins.plainMsgs, "count")
	add("replog.kb_per_write", twins.journaledKB-twins.plainKB, "kB")

	// Journal size on whichever journaled coordinator the workload has
	// (the probe twin when the workload's groups keep no journal).
	journaled := e.group
	if journaled == nil {
		journaled = twins.journaled
	}
	live := 0
	for _, p := range journaled.RunningPeers() {
		if p.IsCoordinator() && p.Journal() != nil {
			live = p.Journal().Stats().Live
		}
	}
	add("replog.live_entries_end", float64(live), "count")

	if e.crashStats == nil {
		// No crash in the workload itself: take the anatomy of one
		// crash on the journaled twin.
		stats, err := probeCrash(e, twins)
		if err != nil {
			return nil, err
		}
		e.crashStats = stats
	}
	out = append(out, e.crashStats.metrics()...)
	return out, nil
}

func probeRemoteGet(e *env) (float64, error) {
	name := "probe-" + e.newReq()
	tr, err := e.transport(name)
	if err != nil {
		return 0, err
	}
	peer := p2p.NewPeer(name, e.dep.IDGen().New(p2p.PeerIDKind), tr)
	disco := p2p.NewDiscoveryService(peer)
	peer.Start()
	defer func() { _ = peer.Close() }()
	var s sample
	for i := 0; i < probeColdTrials; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		start := time.Now()
		advs, err := disco.RemoteGetAdvertisements(ctx, []string{e.dep.RendezvousAddr()}, bpeer.SemanticAdvType, "", "", 0)
		s.addDuration(time.Since(start), time.Millisecond)
		cancel()
		if err != nil || len(advs) == 0 {
			return 0, fmt.Errorf("remote get probe: %d advertisements, %v", len(advs), err)
		}
	}
	return s.median(), nil
}

// twinResult is the journaled-vs-plain comparison.
type twinResult struct {
	journaled, plain         *core.Group
	proxy                    *proxy.SWSProxy
	journaledMS, plainMS     float64
	journaledMsgs, plainMsgs float64
	journaledKB, plainKB     float64
}

func deployTwins(e *env) (*twinResult, error) {
	records := backend.SeedStudents(students, 1)
	deploy := func(name string, sig ontology.Signature, noJournal bool) (*core.Group, error) {
		replicas := make([]core.ReplicaSpec, 3)
		for i := range replicas {
			replicas[i] = core.ReplicaSpec{Handler: studentHandler(e.oracle, backend.NewOperationalDB(records, 0), "")}
		}
		// A wedged formation is retried under a fresh name: the replicas
		// of the failed attempt still hold the old one's addresses.
		var (
			g   *core.Group
			err error
		)
		for attempt := 0; attempt < setupAttempts; attempt++ {
			g, err = deployGroup(e, core.GroupSpec{
				Name: fmt.Sprintf("%s%d", name, attempt), Signature: sig, NoJournal: noJournal, Replicas: replicas,
				QoS: groupQoS,
			})
			if !errNotReady(err) {
				break
			}
		}
		return g, err
	}
	var (
		t   twinResult
		err error
	)
	t.journaled, err = deploy("ProbeJournaled", ontology.Signature{
		Action: b2b("CarePlanning"), Inputs: []string{b2b("PatientID")}, Outputs: []string{b2b("TreatmentPlan")}}, false)
	if err != nil {
		return nil, fmt.Errorf("journaled twin: %w", err)
	}
	t.plain, err = deploy("ProbePlain", ontology.Signature{
		Action: b2b("LoanApproval"), Inputs: []string{b2b("LoanApplication")}, Outputs: []string{b2b("LoanDecision")}}, true)
	if err != nil {
		return nil, fmt.Errorf("plain twin: %w", err)
	}
	t.proxy, err = e.dep.NewProxy("probe-twins", core.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	e.cleanup = append(e.cleanup, func() { _ = t.proxy.Close() })
	run := func(g *core.Group) (ms, msgs, kb float64, err error) {
		adv := g.Peers()[0].SemanticAdvertisement()
		var s sample
		var before simnet.ProtoStats
		for i := -20; i < probeInvokes; i++ {
			if i == 0 {
				before = e.wire()[p2p.ProtoPipe]
			}
			req := e.newReq()
			ctx, cancel := keyedCtx(req)
			start := time.Now()
			out, err := t.proxy.InvokeGroup(ctx, adv, opWrite, requestBody(opWrite, "S0001", req))
			cancel()
			if err != nil || !replyMatches(out, "S0001", req) {
				return 0, 0, 0, fmt.Errorf("twin %s invoke: %v", g.Name(), err)
			}
			if i >= 0 {
				s.addDuration(time.Since(start), time.Millisecond)
			}
		}
		after := e.wire()[p2p.ProtoPipe]
		n := float64(probeInvokes)
		return s.median(), float64(after.Messages-before.Messages) / n, float64(after.Bytes-before.Bytes) / 1000 / n, nil
	}
	if t.journaledMS, t.journaledMsgs, t.journaledKB, err = run(t.journaled); err != nil {
		return nil, err
	}
	if t.plainMS, t.plainMsgs, t.plainKB, err = run(t.plain); err != nil {
		return nil, err
	}
	return &t, nil
}

// crashStats is the per-crash anatomy reported under election.*.
type crashStats struct {
	outageMS, detectMS sample
	electionMsgs       float64 // per crash
	rebinds            float64 // per crash
}

func (c *crashStats) metrics() []metric {
	outage, detect := c.outageMS.median(), c.detectMS.median()
	return []metric{
		{"election.outage_ms", outage, "ms"},
		{"election.detect_ms", detect, "ms"},
		{"election.rebind_ms", outage - detect, "ms"},
		{"election.msgs_per_crash", c.electionMsgs, "count"},
		{"proxy.rebinds_per_crash", c.rebinds, "count"},
	}
}

// newCrashStats folds crash records and the counter deltas around them.
func newCrashStats(crashes []crashRecord, electionMsgs, rebinds int64) *crashStats {
	c := &crashStats{}
	for _, r := range crashes {
		if r.outage > 0 {
			c.outageMS.addDuration(r.outage, time.Millisecond)
		}
		if r.detect > 0 {
			c.detectMS.addDuration(r.detect, time.Millisecond)
		}
	}
	n := float64(len(crashes))
	c.electionMsgs = ratio(float64(electionMsgs), n)
	c.rebinds = ratio(float64(rebinds), n)
	return c
}

// probeCrash crashes the journaled twin's coordinator while one request
// every 10 ms goes through the twins' proxy, until service resumes.
func probeCrash(e *env, t *twinResult) (*crashStats, error) {
	const (
		tick     = 10 * time.Millisecond
		crashIn  = 200 * time.Millisecond
		patience = 8 * time.Second
	)
	adv := t.journaled.Peers()[0].SemanticAdvertisement()
	election0 := e.wire()[p2p.ProtoElection].Messages
	rebinds0 := t.proxy.Rebinds()
	start := time.Now()
	var (
		rec      crashRecord
		crashErr error
		done     = make(chan struct{})
	)
	go func() {
		defer close(done)
		time.Sleep(time.Until(start.Add(crashIn)))
		rec, _, crashErr = crashCoordinator(t.journaled, start.Add(patience))
	}()
	load := &loadResult{}
	for i := 0; time.Since(start) < patience; i++ {
		due := start.Add(time.Duration(i) * tick)
		time.Sleep(time.Until(due))
		req := e.newReq()
		ctx, cancel := keyedCtx(req)
		out, err := t.proxy.InvokeGroup(ctx, adv, opWrite, requestBody(opWrite, "S0001", req))
		cancel()
		load.due = append(load.due, due)
		if err != nil || !replyMatches(out, "S0001", req) {
			load.done = append(load.done, time.Time{})
			continue
		}
		load.done = append(load.done, time.Now())
		if due.After(start.Add(crashIn + tick)) {
			break // served again after the crash
		}
	}
	<-done
	if crashErr != nil {
		return nil, fmt.Errorf("crash probe: %w", crashErr)
	}
	crashes := []crashRecord{rec}
	fillOutages(crashes, load)
	if crashes[0].outage == 0 {
		return nil, fmt.Errorf("crash probe: no correct reply within %s of the crash", patience)
	}
	return newCrashStats(crashes, e.wire()[p2p.ProtoElection].Messages-election0, t.proxy.Rebinds()-rebinds0), nil
}
