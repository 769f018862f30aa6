// Command peerctl inspects a running Whisper overlay through its
// rendezvous peer: group membership, semantic advertisements, the
// current coordinator of a group, and recent distributed traces.
//
// Usage (flags must precede the command):
//
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:jxta:group-uuid-studentmanagement members
//	peerctl -rendezvous 127.0.0.1:7000 advertisements
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:... coordinator
//	peerctl -rendezvous 127.0.0.1:7000 trace
//	peerctl -rendezvous 127.0.0.1:7000 -trace-id t1a2b3c4-17 trace
//	peerctl -rendezvous 127.0.0.1:7000 -peer 127.0.0.1:7031 breakers
//	peerctl -rendezvous 127.0.0.1:7000 -peer 127.0.0.1:7031 cache
//	peerctl -rendezvous 127.0.0.1:7000 -peer 127.0.0.1:7031 loadctl
//	peerctl -rendezvous 127.0.0.1:7000 -peer 127.0.0.1:7021 journal
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:... readindex
//	peerctl -rendezvous 127.0.0.1:7000 gossip
//	peerctl -rendezvous 127.0.0.1:7000 -shards 127.0.0.1:7000,127.0.0.1:7041 shards
//
// The breakers command asks a running SWS-proxy (its address via
// -peer) for the per-group circuit-breaker states and resilience
// counters, so a live run shows open/half-open transitions.
//
// The cache command asks a running SWS-proxy for its cache
// statistics: the lookup memo's candidates, hit/miss and match
// counters, the remote query rounds behind them, and cached binding
// counts.
//
// The loadctl command asks a running SWS-proxy for its admission
// pipeline: the AIMD concurrency limit, inflight and queued requests,
// the p95 service estimate, per-client token-bucket levels and the
// shed counters by rejection reason.
//
// The journal command asks a running b-peer replica (its address via
// -peer) for its replicated operation journal: sequence numbers,
// per-entry status, and the journal/snapshot counters behind the
// group's exactly-once guarantee — plus the replica's group record: the
// replication set (suspects marked), the age of the installed member
// list, the coordinator it follows with its term, and the view.*,
// detect.* (silences reported on a refused ping vs. a timeout) and
// replicate.miss counters.
//
// The readindex command asks every group member for its local
// committed sequence (the index follower reads barrier on) and prints
// each replica's lag behind the highest — a live view of how far each
// follower trails the coordinator's committed prefix.
//
// The trace command asks a peer (the rendezvous by default; any traced
// peer via -peer) for its recorded spans — the target must run with
// tracing enabled (whisperd -tracing). Without -trace-id it prints an
// index of the most recent traces; with it, the full span tree.
//
// The gossip command asks one discovery shard (via -peer; the
// rendezvous, which carries shard 0, by default) for its gossip engine
// and store counters as key=value lines: rumor rounds, reconciles,
// queue depth, entry/live counts and the convergence checksum.
//
// The shards command takes the shard fleet's addresses via -shards,
// prints each shard's entry counts, and maps every semantic
// advertisement found on the fleet to its replica owners on the
// consistent-hash ring — a live view of how the discovery index is
// partitioned. Both commands work against any deployment: a lone
// rendezvous is a fleet of one (-shards <rendezvous address>).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "peerctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("peerctl", flag.ContinueOnError)
	var (
		rendezvous = fs.String("rendezvous", "", "rendezvous peer address (required)")
		group      = fs.String("group", "urn:jxta:group-uuid-studentmanagement", "b-peer group URN")
		timeout    = fs.Duration("timeout", 3*time.Second, "query timeout")
		peerAddr   = fs.String("peer", "", "target peer address: traces default to the rendezvous; breakers require the SWS-proxy address")
		traceID    = fs.String("trace-id", "", "print this trace's full span tree instead of the index")
		last       = fs.Int("last", 10, "number of recent traces to index")
		shardList  = fs.String("shards", "", "comma-separated shard fleet addresses (required for the shards command)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *rendezvous == "" {
		return errors.New("-rendezvous is required")
	}
	cmd := fs.Arg(0)
	if cmd == "" {
		return errors.New("command required: members|advertisements|coordinator|trace|breakers|cache|loadctl|journal|readindex|gossip|shards")
	}

	bpeer.EnsureAdvTypes()
	tr, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		return err
	}
	gen := p2p.NewIDGen(0)
	peer := p2p.NewPeer("peerctl", gen.New(p2p.PeerIDKind), tr)
	peer.Start()
	defer func() { _ = peer.Close() }()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch cmd {
	case "members":
		return showMembers(ctx, peer, *rendezvous, p2p.ID(*group))
	case "advertisements":
		return showAdvertisements(ctx, peer, *rendezvous)
	case "coordinator":
		return showCoordinator(ctx, peer, *rendezvous, p2p.ID(*group))
	case "trace":
		target := *peerAddr
		if target == "" {
			target = *rendezvous
		}
		return showTraces(ctx, peer, target, trace.ID(*traceID), *last)
	case "breakers":
		if *peerAddr == "" {
			return errors.New("-peer (the SWS-proxy address) is required for breakers")
		}
		return showBreakers(ctx, peer, *peerAddr)
	case "cache":
		if *peerAddr == "" {
			return errors.New("-peer (the SWS-proxy address) is required for cache")
		}
		return showCache(ctx, peer, *peerAddr)
	case "loadctl":
		if *peerAddr == "" {
			return errors.New("-peer (the SWS-proxy address) is required for loadctl")
		}
		return showLoadctl(ctx, peer, *peerAddr)
	case "journal":
		if *peerAddr == "" {
			return errors.New("-peer (a b-peer replica address) is required for journal")
		}
		return showJournal(ctx, peer, *peerAddr)
	case "readindex":
		return showReadIndex(ctx, peer, *rendezvous, p2p.ID(*group))
	case "gossip":
		target := *peerAddr
		if target == "" {
			target = *rendezvous
		}
		return showGossip(ctx, peer, target)
	case "shards":
		if *shardList == "" {
			return errors.New("-shards (the shard fleet's comma-separated addresses) is required for shards")
		}
		return showShards(ctx, peer, strings.Split(*shardList, ","))
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// showGossip dumps one shard's gossip counters verbatim (the shard
// serves them as sorted key=value lines).
func showGossip(ctx context.Context, peer *p2p.Peer, shardAddr string) error {
	stats, err := p2p.NewGossipClient(peer).Stats(ctx, shardAddr)
	if err != nil {
		return fmt.Errorf("gossip stats from %s (is it a discovery shard?): %w", shardAddr, err)
	}
	fmt.Print(stats)
	return nil
}

// showShards prints the shard fleet's per-shard counters and maps each
// semantic advertisement on the fleet to its replica owners on the
// consistent-hash ring.
func showShards(ctx context.Context, peer *p2p.Peer, addrs []string) error {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	client := p2p.NewGossipClient(peer)
	fmt.Printf("%-5s %-22s %-8s %-8s %-8s %s\n", "SHARD", "ADDR", "ENTRIES", "LIVE", "ROUNDS", "CHECKSUM")
	var up []string
	for i, addr := range addrs {
		stats, err := client.Stats(ctx, addr)
		if err != nil {
			fmt.Printf("%-5d %-22s %v\n", i, addr, err)
			continue
		}
		up = append(up, addr)
		kv := parseStatLines(stats)
		fmt.Printf("%-5d %-22s %-8s %-8s %-8s %s\n",
			i, addr, kv["entries"], kv["live"], kv["rounds"], kv["checksum"])
	}
	if len(up) == 0 {
		return errors.New("no shard answered")
	}

	router := p2p.NewShardRouter(addrs)
	disco := p2p.NewDiscoveryClient(peer)
	advs, err := disco.RemoteGetAdvertisements(ctx, up[:1], "", "", "", 0)
	if err != nil {
		return fmt.Errorf("advertisements from shard %s: %w", up[0], err)
	}
	fmt.Printf("\nring: %d shards, %d replica owners per slot\n", len(addrs), p2p.DefaultShardReplicas)
	fmt.Printf("%-30s %-34s %s\n", "NAME", "ACTION", "OWNERS")
	for _, adv := range advs {
		sem, ok := adv.(*bpeer.SemanticAdvertisement)
		if !ok {
			continue
		}
		owners := router.AppendOwners(nil, adv.AdvType(), "action", sem.Action)
		fmt.Printf("%-30s %-34s %s\n", sem.Name, sem.Action, strings.Join(owners, ","))
	}
	return nil
}

// parseStatLines splits "key=value\n" stats output into a map.
func parseStatLines(s string) map[string]string {
	kv := make(map[string]string)
	for _, line := range strings.Split(s, "\n") {
		if k, v, ok := strings.Cut(line, "="); ok {
			kv[k] = v
		}
	}
	return kv
}

func showCache(ctx context.Context, peer *p2p.Peer, proxyAddr string) error {
	report, err := proxy.QueryCache(ctx, peer, proxyAddr)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func showJournal(ctx context.Context, peer *p2p.Peer, bpeerAddr string) error {
	res := p2p.NewResolverOn(peer, bpeer.ProtoBinding)
	report, err := bpeer.QueryJournal(ctx, res, bpeerAddr)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func showLoadctl(ctx context.Context, peer *p2p.Peer, proxyAddr string) error {
	report, err := proxy.QueryLoadctl(ctx, peer, proxyAddr)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

// showReadIndex queries every group member's local committed sequence
// and prints the per-replica lag behind the highest index seen.
func showReadIndex(ctx context.Context, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	rdv := p2p.NewRendezvousClient(peer, rdvAddr)
	members, err := rdv.Members(ctx, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return errors.New("group has no members")
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Rank > members[j].Rank })
	res := p2p.NewResolverOn(peer, bpeer.ProtoBinding)
	type row struct {
		name, addr string
		idx        uint64
		err        error
	}
	rows := make([]row, 0, len(members))
	var highest uint64
	for _, m := range members {
		idx, err := bpeer.QueryReadIndex(ctx, res, m.Addr)
		rows = append(rows, row{name: m.Name, addr: m.Addr, idx: idx, err: err})
		if err == nil && idx > highest {
			highest = idx
		}
	}
	fmt.Printf("%-20s %-22s %-12s %s\n", "NAME", "ADDR", "READ-INDEX", "LAG")
	for _, r := range rows {
		if r.err != nil {
			fmt.Printf("%-20s %-22s %-12s %v\n", r.name, r.addr, "-", r.err)
			continue
		}
		fmt.Printf("%-20s %-22s %-12d %d\n", r.name, r.addr, r.idx, highest-r.idx)
	}
	return nil
}

func showBreakers(ctx context.Context, peer *p2p.Peer, proxyAddr string) error {
	report, err := proxy.QueryBreakers(ctx, peer, proxyAddr)
	if err != nil {
		return err
	}
	fmt.Print(report)
	return nil
}

func showMembers(ctx context.Context, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	rdv := p2p.NewRendezvousClient(peer, rdvAddr)
	members, err := rdv.Members(ctx, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		fmt.Println("no members")
		return nil
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Rank > members[j].Rank })
	fmt.Printf("%-20s %-6s %-22s %s\n", "NAME", "RANK", "ADDR", "PID")
	for _, m := range members {
		fmt.Printf("%-20s %-6d %-22s %s\n", m.Name, m.Rank, m.Addr, m.PID)
	}
	return nil
}

func showAdvertisements(ctx context.Context, peer *p2p.Peer, rdvAddr string) error {
	disco := p2p.NewDiscoveryClient(peer)
	advs, err := disco.RemoteGetAdvertisements(ctx, []string{rdvAddr}, "", "", "", 0)
	if err != nil {
		return err
	}
	if len(advs) == 0 {
		fmt.Println("no advertisements")
		return nil
	}
	for _, adv := range advs {
		fmt.Printf("%s %s\n", adv.AdvType(), adv.AdvID())
		if sem, ok := adv.(*bpeer.SemanticAdvertisement); ok {
			fmt.Printf("  name:    %s\n  action:  %s\n  inputs:  %v\n  outputs: %v\n  policy:  %s\n  qos:     latency=%.1fms reliability=%.3f availability=%.3f cost=%.2f\n",
				sem.Name, sem.Action, sem.Inputs, sem.Outputs, sem.EffectivePolicy(),
				sem.QoS.LatencyMillis, sem.QoS.Reliability, sem.QoS.Availability, sem.QoS.CostPerCall)
		}
	}
	return nil
}

// showTraces dumps the target peer's span collector: an index of the
// most recent traces, or one trace's full span tree with -trace-id.
func showTraces(ctx context.Context, peer *p2p.Peer, addr string, id trace.ID, last int) error {
	res := p2p.NewTraceClient(peer)
	recs, err := p2p.QueryTraces(ctx, res, addr)
	if err != nil {
		return fmt.Errorf("trace dump from %s (is it running with tracing enabled?): %w", addr, err)
	}
	if len(recs) == 0 {
		fmt.Println("no traces recorded")
		return nil
	}
	if id != "" {
		root, orphans := trace.BuildTree(recs, id)
		if root == nil {
			return fmt.Errorf("trace %s not found at %s", id, addr)
		}
		fmt.Print(root.Format())
		for _, o := range orphans {
			fmt.Println("(detached)")
			fmt.Print(o.Format())
		}
		return nil
	}

	type traceInfo struct {
		id    trace.ID
		start time.Time
		end   time.Time
		spans int
		root  string
	}
	byID := make(map[trace.ID]*traceInfo)
	var order []*traceInfo
	for _, r := range recs {
		ti := byID[r.TraceID]
		if ti == nil {
			ti = &traceInfo{id: r.TraceID, start: r.Start, end: r.End}
			byID[r.TraceID] = ti
			order = append(order, ti)
		}
		ti.spans++
		if r.Start.Before(ti.start) {
			ti.start = r.Start
		}
		if r.End.After(ti.end) {
			ti.end = r.End
		}
		if r.ParentID == "" {
			ti.root = r.Name
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].start.After(order[j].start) })
	if last > 0 && len(order) > last {
		order = order[:last]
	}
	fmt.Printf("%-24s %-24s %-6s %-12s %s\n", "TRACE", "ROOT", "SPANS", "DURATION", "START")
	for _, ti := range order {
		fmt.Printf("%-24s %-24s %-6d %-12v %s\n",
			ti.id, ti.root, ti.spans, ti.end.Sub(ti.start).Round(time.Microsecond),
			ti.start.Format(time.RFC3339Nano))
	}
	fmt.Println("\nuse -trace-id <TRACE> to print a span tree")
	return nil
}

func showCoordinator(ctx context.Context, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	rdv := p2p.NewRendezvousClient(peer, rdvAddr)
	members, err := rdv.Members(ctx, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return errors.New("group has no members")
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Rank > members[j].Rank })
	res := p2p.NewResolverOn(peer, bpeer.ProtoBinding)
	var lastErr error
	for _, m := range members {
		coord, pipeID, err := bpeer.QueryCoordinator(ctx, res, m.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		fmt.Printf("coordinator: %s\n", coord)
		if pipeID != "" {
			fmt.Printf("service pipe: %s\n", pipeID)
		}
		return nil
	}
	return fmt.Errorf("no member answered: %w", lastErr)
}
