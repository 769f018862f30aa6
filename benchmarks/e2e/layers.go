package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"whisper/internal/p2p"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// protoTags are the protocol tags the workloads exercise; traffic under
// any other tag is reported as "other" so the per-protocol figures
// always sum to msgs_per_op / wire_kb_per_op.
var protoTags = []string{"pipe", "binding", "discovery", "heartbeat", "election", "rendezvous"}

// spanLayers are the span names the program records on a request's
// path, as they appear in the budget. Spans under other names are
// pooled as "other" and count as unattributed.
var spanLayers = []string{"soap", "proxy.invoke", "discovery", "bind", "election-wait", "call",
	"bpeer.request", "replog.replicate", "replog.apply", "backend"}

// withOther is list plus the catch-all bucket both splits end with.
func withOther(list []string) []string {
	return append(append([]string(nil), list...), "other")
}

func spanLayer(name string) string {
	switch {
	case strings.HasPrefix(name, "soap."):
		return "soap"
	case name == "re-bind":
		return "bind"
	}
	for _, l := range spanLayers {
		if l == name {
			return l
		}
	}
	return "other"
}

// selfTime is a span's duration minus the part of it covered by its
// children (their union, clipped to the span).
func selfTime(span trace.SpanRecord, children []trace.SpanRecord) time.Duration {
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a.Before(span.Start) {
			a = span.Start
		}
		if b.After(span.End) {
			b = span.End
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.After(end) {
			covered += v.b.Sub(v.a)
			end = v.b
		} else if v.b.After(end) {
			covered += v.b.Sub(end)
			end = v.b
		}
	}
	return span.Duration() - covered
}

// spanFold is the traced window folded into per-request means.
type spanFold struct {
	requests int
	// rootMS is the mean duration of a request's root span.
	rootMS float64
	// selfMS is the mean self time per request of each layer.
	selfMS map[string]float64
	// count is the mean number of spans per request of each layer.
	count map[string]float64
}

// foldSpans groups spans by trace, keeps the traces rooted at a request
// span (soap.* behind SOAP, proxy.invoke below it) that started inside
// [from, to], and sums self times by layer.
func foldSpans(spans []trace.SpanRecord, from, to time.Time) spanFold {
	byTrace := map[trace.ID][]trace.SpanRecord{}
	for _, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], s)
	}
	fold := spanFold{selfMS: map[string]float64{}, count: map[string]float64{}}
	for _, group := range byTrace {
		ids := make(map[trace.ID]bool, len(group))
		children := map[trace.ID][]trace.SpanRecord{}
		for _, s := range group {
			ids[s.SpanID] = true
		}
		var root *trace.SpanRecord
		for i, s := range group {
			if ids[s.ParentID] && s.ParentID != s.SpanID {
				children[s.ParentID] = append(children[s.ParentID], s)
			} else if l := spanLayer(s.Name); l == "soap" || (l == "proxy.invoke" && root == nil) {
				root = &group[i]
			}
		}
		if root == nil || root.Start.Before(from) || root.Start.After(to) {
			continue
		}
		fold.requests++
		fold.rootMS += float64(root.Duration()) / float64(time.Millisecond)
		// Walk only what hangs under the root: spans orphaned by ring
		// wrap-around belong to no request.
		stack := []trace.SpanRecord{*root}
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			layer := spanLayer(s.Name)
			fold.selfMS[layer] += float64(selfTime(s, children[s.SpanID])) / float64(time.Millisecond)
			fold.count[layer]++
			stack = append(stack, children[s.SpanID]...)
		}
	}
	n := float64(fold.requests)
	fold.rootMS = ratio(fold.rootMS, n)
	for k := range fold.selfMS {
		fold.selfMS[k] = ratio(fold.selfMS[k], n)
		fold.count[k] = ratio(fold.count[k], n)
	}
	return fold
}

// perProto splits the window's traffic by protocol tag, per operation.
func perProto(before, after map[string]simnet.ProtoStats, ops float64) (msgs, kb map[string]float64) {
	msgs, kb = map[string]float64{"other": 0}, map[string]float64{"other": 0}
	known := map[string]bool{}
	for _, t := range protoTags {
		known[t] = true
		msgs[t], kb[t] = 0, 0
	}
	for tag, a := range after {
		b := before[tag]
		key := tag
		if !known[tag] {
			key = "other"
		}
		msgs[key] += ratio(float64(a.Messages-b.Messages), ops)
		kb[key] += ratio(float64(a.Bytes-b.Bytes)/1000, ops)
	}
	return msgs, kb
}

// tracedRun is everything a traced run learned, kept for the budget.
type tracedRun struct {
	result       *runResult
	fold         spanFold
	clientMeanMS float64
	spans        []trace.SpanRecord
}

// runTraced is the per-layer run: outside probes first, then a third of
// the window untraced (the baseline for trace.overhead_pct, followed by
// the probes on that deployment), then a third with core.Config.Tracing
// on, whose spans are folded into self times.
func runTraced(w *workload, seed int64, window time.Duration) (*tracedRun, error) {
	res := &runResult{workload: w.name, seed: seed}
	add := func(name string, v float64, unit string) { res.metrics = append(res.metrics, metric{name, v, unit}) }
	sub := window / 3

	pure, err := pureProbes(w.inputs())
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, pure...)

	twStart := int64(0)
	if w.tcp {
		twStart, _ = waitTimeWait()
	}
	// Untraced third.
	plain, _, retries, err := setupTimed(func() (*env, error) { return w.setup(seed, false) })
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	dials0 := tcpActiveOpens()
	plainWin, err := measure(w, plain, seed, sub)
	if err != nil {
		plain.close()
		return nil, err
	}
	dials := tcpActiveOpens() - dials0
	load := plainWin.res.load
	ops := plainWin.ops()
	res.attempted, res.failed = load.attempted, load.attempted-load.correct

	protoMsgs, protoKB := perProto(plainWin.before.wire, plainWin.after.wire, ops)
	for _, tag := range withOther(protoTags) {
		add("simnet.msgs_per_op."+tag, protoMsgs[tag], "count")
		add("simnet.kb_per_op."+tag, protoKB[tag], "kB")
	}
	if !w.tcp {
		dials = 0
	}
	add("simnet.tcp_dials_per_op", ratio(float64(dials), ops), "count")
	add("simnet.tcp_tw_start", float64(twStart), "count")

	p99, _ := load.latencyMS.percentile(99)
	late90, _ := load.latenessMS.percentile(90)
	add("client.latency_p99_ms", p99, "ms")
	add("client.latency_max_ms", load.latencyMS.max(), "ms")
	add("gen.lateness_p90_ms", late90, "ms")
	add("gen.backlog_max", float64(load.backlogMax), "count")
	add("proc.cpu_ms_per_op", ratio(float64(plainWin.after.cpu-plainWin.before.cpu)/float64(time.Millisecond), ops), "ms")
	add("proc.gc_cycles_per_kop", ratio(float64(plainWin.after.gcCycles-plainWin.before.gcCycles)*1000, ops), "count")
	add("proc.heap_mb_end", float64(plainWin.after.heapAlloc)/1e6, "MB")
	add("core.setup_retries", float64(retries), "count")

	match, index := plain.cacheStats()
	add("proxy.match_cache_hit_ratio", match, "ratio")
	add("p2p.discovery_index_hit_ratio", index, "ratio")
	coord := ""
	if plain.group != nil {
		coord = plain.group.Coordinator()
	}
	add("bpeer.follower_read_share", plain.oracle.followerShare(coord), "ratio")

	if len(plainWin.res.crashes) > 0 {
		plain.crashStats = newCrashStats(plainWin.res.crashes,
			plainWin.after.wire[p2p.ProtoElection].Messages-plainWin.before.wire[p2p.ProtoElection].Messages,
			plainWin.res.rebinds)
	}
	probes, err := deploymentProbes(plain, w.inputs())
	plain.close()
	if err != nil {
		return nil, err
	}
	res.metrics = append(res.metrics, probes...)

	// Traced third.
	traced, _, _, err := setupTimed(func() (*env, error) { return w.setup(seed, true) })
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer traced.close()
	from := time.Now()
	tracedWin, err := measure(w, traced, seed, sub)
	if err != nil {
		return nil, err
	}
	run := &tracedRun{result: res, spans: traced.dep.TraceCollector().Snapshot()}
	run.fold = foldSpans(run.spans, from, time.Now())
	tl := tracedWin.res.load
	run.clientMeanMS = mean(tl.latencyMS.vals)

	p50Plain, p50Traced := load.latencyMS.median(), tl.latencyMS.median()
	add("trace.overhead_pct", ratio(p50Traced-p50Plain, p50Plain)*100, "%")
	for _, l := range withOther(spanLayers) {
		add("trace.self_ms."+l, run.fold.selfMS[l], "ms")
	}
	add("trace.client_edge_ms", run.clientMeanMS-run.fold.rootMS, "ms")
	add("trace.unattributed_pct", run.unattributedPct(res.value("soap.http_roundtrip_us")/1000, w.soap), "%")
	res.notes = append(res.notes,
		fmt.Sprintf("untraced third: %d requests; traced third: %d requests, %d spans, %d request traces",
			load.attempted, tl.attempted, len(run.spans), run.fold.requests))
	sort.Slice(res.metrics, func(i, j int) bool { return res.metrics[i].name < res.metrics[j].name })
	if err := checkPerLayer(res.metrics); err != nil {
		return nil, err
	}
	return run, nil
}

// unattributedPct is the share of the client's mean latency that no
// named layer explains: self time of spans outside spanLayers, plus the
// client-side edge (time outside every span) that the SOAP round-trip
// probe does not account for.
func (t *tracedRun) unattributedPct(soapRoundTripMS float64, behindSOAP bool) float64 {
	edge := t.clientMeanMS - t.fold.rootMS
	if behindSOAP {
		edge -= soapRoundTripMS
	}
	return ratio(t.fold.selfMS["other"]+math.Abs(edge), t.clientMeanMS) * 100
}

// budget renders where a request's time went, for the README's reader.
func (t *tracedRun) budget(w *workload) string {
	res := t.result
	var b strings.Builder
	row := func(label string, ms float64, note string) {
		fmt.Fprintf(&b, "  %-34s %8.3f ms  %5.1f %%  %s\n", label, ms, ratio(ms, t.clientMeanMS)*100, note)
	}
	fmt.Fprintf(&b, "%s budget: mean ms per request over %d traced requests (client mean %.3f ms)\n",
		w.name, t.fold.requests, t.clientMeanMS)
	self := t.fold.selfMS
	row("SOAP edge", t.clientMeanMS-t.fold.rootMS+self["soap"],
		fmt.Sprintf("client time outside spans + soap span self (soap.http_roundtrip_us probe: %.3f ms)", res.value("soap.http_roundtrip_us")/1000))
	row("discovery", self["discovery"], fmt.Sprintf("match-cache hit ratio %.3f", res.value("proxy.match_cache_hit_ratio")))
	row("bind / re-bind / election-wait", self["bind"]+self["election-wait"], "")
	row("proxy.invoke self", self["proxy.invoke"], "")
	// Blocking-path messages: each call and each replicate is one
	// request and one reply on the wire (a fan-out travels in parallel).
	hops := 2 * (t.fold.count["call"] + t.fold.count["replog.replicate"])
	pipeMsgs := res.value("simnet.msgs_per_op.pipe")
	perMsgMS := lanOneWay.Seconds()*1000 + ratio(res.value("simnet.kb_per_op.pipe"), pipeMsgs)/12.5
	row("call + replicate self (wire)", self["call"]+self["replog.replicate"],
		fmt.Sprintf("of which modelled wire %.3f ms = %.1f blocking messages x %.3f ms", hops*perMsgMS, hops, perMsgMS))
	row("bpeer.request self", self["bpeer.request"], fmt.Sprintf("journal overhead against the NoJournal twin: %.3f ms", res.value("bpeer.journal_overhead_ms")))
	row("replog.apply self (followers)", self["replog.apply"], "")
	row("handler (backend span)", self["backend"], fmt.Sprintf("bpeer.handler_us probe: %.3f ms", res.value("bpeer.handler_us")/1000))
	row("other spans", self["other"], "")
	fmt.Fprintf(&b, "  unattributed: %.2f %% of the client mean; tracing overhead on p50: %.2f %%\n",
		res.value("trace.unattributed_pct"), res.value("trace.overhead_pct"))
	return b.String()
}

const outDir = "benchmarks/e2e/out"

// runLayers is `-layers`: a traced run of every workload (or the one
// named), its per-layer table written under out/ with the spans, and
// the budget of each.
func runLayers(name string, seed int64, window time.Duration) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
		return 1
	}
	status := 0
	for i := range workloads {
		w := &workloads[i]
		if name != "" && name != w.name {
			continue
		}
		run, err := runTraced(w, seed, window)
		if err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %s seed %d: %v\n", w.name, seed, err)
			status = 1
			continue
		}
		run.result.print(os.Stdout)
		budget := run.budget(w)
		fmt.Print(budget)
		if err := run.write(budget); err != nil {
			fmt.Fprintf(os.Stderr, "e2e: %v\n", err)
			status = 1
		}
	}
	return status
}

// write stores the per-layer table, the budget and the raw spans.
func (t *tracedRun) write(budget string) error {
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", t.result.workload, t.result.seed))
	table, err := os.Create(base + "-layers.txt")
	if err != nil {
		return err
	}
	t.result.print(table)
	fmt.Fprint(table, budget)
	if err := table.Close(); err != nil {
		return err
	}
	// Oldest first, as Collector.Snapshot returns them.
	spans, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-spans.json", spans, 0o644)
}
