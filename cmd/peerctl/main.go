// Command peerctl inspects a running Whisper overlay through its
// rendezvous peer: group membership, semantic advertisements, the
// current coordinator of a group, recent distributed traces, and any
// peer's status.
//
// Usage (flags must precede the command):
//
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:jxta:group-uuid-studentmanagement members
//	peerctl -rendezvous 127.0.0.1:7000 advertisements
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:... coordinator
//	peerctl -rendezvous 127.0.0.1:7000 trace
//	peerctl -rendezvous 127.0.0.1:7000 -trace-id t1a2b3c4-17 trace
//	peerctl -rendezvous 127.0.0.1:7000 -group urn:... readindex
//	peerctl -rendezvous 127.0.0.1:7000 -shards 127.0.0.1:7000,127.0.0.1:7041 shards
//	peerctl -rendezvous 127.0.0.1:7000 -peer 127.0.0.1:7031 status
//
// The status command asks one peer (via -peer; the rendezvous by
// default) for its status and prints it as indented JSON: one section
// per role the peer plays. An SWS-proxy's "proxy" section holds its
// lookup memo and match counters, binding counts, per-group breaker
// states, resilience counters and admission pipeline (null when
// admission is off). A b-peer's "bpeer" section holds its group record
// — the replication set with suspects, the coordinator it follows and
// its term, the view.* counters and the failure detector's silences by
// evidence — and, on a journaled replica, the journal's stats, counters
// (replicate.miss among them) and entries in sequence order. An index
// node's (every rendezvous, every shard) "gossip" section holds its
// gossip engine and store counters: rounds, queue depth, entry and
// live counts, and the convergence checksum.
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
// The shards command takes the shard fleet's addresses via -shards,
// prints each shard's entry counts from its status, and maps every
// semantic advertisement found on the fleet to its replica owners on
// the consistent-hash ring — a live view of how the discovery index is
// partitioned. It works against any deployment: a lone rendezvous is a
// fleet of one (-shards <rendezvous address>).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/p2p"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "peerctl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("peerctl", flag.ContinueOnError)
	var (
		rendezvous = fs.String("rendezvous", "", "rendezvous peer address (required)")
		group      = fs.String("group", "urn:jxta:group-uuid-studentmanagement", "b-peer group URN")
		timeout    = fs.Duration("timeout", 3*time.Second, "query timeout")
		peerAddr   = fs.String("peer", "", "target peer address for trace and status (default the rendezvous)")
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
		return errors.New("command required: members|advertisements|coordinator|trace|readindex|shards|status")
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

	target := *peerAddr
	if target == "" {
		target = *rendezvous
	}
	switch cmd {
	case "members":
		return showMembers(ctx, w, peer, *rendezvous, p2p.ID(*group))
	case "advertisements":
		return showAdvertisements(ctx, w, peer, *rendezvous)
	case "coordinator":
		return showCoordinator(ctx, w, peer, *rendezvous, p2p.ID(*group))
	case "trace":
		return showTraces(ctx, w, peer, target, trace.ID(*traceID), *last)
	case "readindex":
		return showReadIndex(ctx, w, peer, *rendezvous, p2p.ID(*group))
	case "shards":
		if *shardList == "" {
			return errors.New("-shards (the shard fleet's comma-separated addresses) is required for shards")
		}
		return showShards(ctx, w, peer, strings.Split(*shardList, ","))
	case "status":
		return showStatus(ctx, w, peer, target)
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// showStatus prints the peer's status answer as indented JSON.
func showStatus(ctx context.Context, w io.Writer, peer *p2p.Peer, addr string) error {
	st, err := p2p.QueryStatus(ctx, p2p.NewResolverOn(peer, p2p.ProtoStatus), addr)
	if err != nil {
		return fmt.Errorf("status from %s: %w", addr, err)
	}
	out, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// showShards prints the shard fleet's per-shard counters, read from
// each shard's status, and maps each semantic advertisement on the
// fleet to its replica owners on the consistent-hash ring.
func showShards(ctx context.Context, w io.Writer, peer *p2p.Peer, addrs []string) error {
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	res := p2p.NewResolverOn(peer, p2p.ProtoStatus)
	fmt.Fprintf(w, "%-5s %-22s %-8s %-8s %-8s %s\n", "SHARD", "ADDR", "ENTRIES", "LIVE", "ROUNDS", "CHECKSUM")
	var up []string
	for i, addr := range addrs {
		var g p2p.GossipStatus
		st, err := p2p.QueryStatus(ctx, res, addr)
		if err == nil && st["gossip"] == nil {
			err = errors.New("not an index node")
		}
		if err == nil {
			err = json.Unmarshal(st["gossip"], &g)
		}
		if err != nil {
			fmt.Fprintf(w, "%-5d %-22s %v\n", i, addr, err)
			continue
		}
		up = append(up, addr)
		fmt.Fprintf(w, "%-5d %-22s %-8d %-8d %-8d %d\n",
			i, addr, g.Store.Entries, g.Store.Live, g.Engine.Rounds, g.Store.Checksum)
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
	fmt.Fprintf(w, "\nring: %d shards, %d replica owners per slot\n", len(addrs), p2p.DefaultShardReplicas)
	fmt.Fprintf(w, "%-30s %-34s %s\n", "NAME", "ACTION", "OWNERS")
	for _, adv := range advs {
		sem, ok := adv.(*bpeer.SemanticAdvertisement)
		if !ok {
			continue
		}
		owners := router.AppendOwners(nil, adv.AdvType(), "action", sem.Action)
		fmt.Fprintf(w, "%-30s %-34s %s\n", sem.Name, sem.Action, strings.Join(owners, ","))
	}
	return nil
}

// showReadIndex queries every group member's local committed sequence
// and prints the per-replica lag behind the highest index seen.
func showReadIndex(ctx context.Context, w io.Writer, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	members, err := groupMembers(ctx, peer, rdvAddr, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return errors.New("group has no members")
	}
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
	fmt.Fprintf(w, "%-20s %-22s %-12s %s\n", "NAME", "ADDR", "READ-INDEX", "LAG")
	for _, r := range rows {
		if r.err != nil {
			fmt.Fprintf(w, "%-20s %-22s %-12s %v\n", r.name, r.addr, "-", r.err)
			continue
		}
		fmt.Fprintf(w, "%-20s %-22s %-12d %d\n", r.name, r.addr, r.idx, highest-r.idx)
	}
	return nil
}

// groupMembers returns the group's members, highest rank first, as the
// rendezvous (a discovery ring of one) lists them.
func groupMembers(ctx context.Context, peer *p2p.Peer, rdvAddr string, gid p2p.ID) ([]*p2p.PeerAdvertisement, error) {
	return p2p.NewDiscoveryClient(peer).Members(ctx, p2p.NewShardRouter([]string{rdvAddr}), gid)
}

func showMembers(ctx context.Context, w io.Writer, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	members, err := groupMembers(ctx, peer, rdvAddr, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		fmt.Fprintln(w, "no members")
		return nil
	}
	fmt.Fprintf(w, "%-20s %-6s %-22s %s\n", "NAME", "RANK", "ADDR", "PID")
	for _, m := range members {
		fmt.Fprintf(w, "%-20s %-6d %-22s %s\n", m.Name, m.Rank, m.Addr, m.PID)
	}
	return nil
}

func showAdvertisements(ctx context.Context, w io.Writer, peer *p2p.Peer, rdvAddr string) error {
	disco := p2p.NewDiscoveryClient(peer)
	advs, err := disco.RemoteGetAdvertisements(ctx, []string{rdvAddr}, "", "", "", 0)
	if err != nil {
		return err
	}
	if len(advs) == 0 {
		fmt.Fprintln(w, "no advertisements")
		return nil
	}
	for _, adv := range advs {
		fmt.Fprintf(w, "%s %s\n", adv.AdvType(), adv.AdvID())
		if sem, ok := adv.(*bpeer.SemanticAdvertisement); ok {
			fmt.Fprintf(w, "  name:    %s\n  action:  %s\n  inputs:  %v\n  outputs: %v\n  read ops: %v\n  qos:     latency=%.1fms reliability=%.3f availability=%.3f cost=%.2f\n",
				sem.Name, sem.Action, sem.Inputs, sem.Outputs, sem.ReadOps,
				sem.QoS.LatencyMillis, sem.QoS.Reliability, sem.QoS.Availability, sem.QoS.CostPerCall)
		}
	}
	return nil
}

// showTraces dumps the target peer's span collector: an index of the
// most recent traces, or one trace's full span tree with -trace-id.
func showTraces(ctx context.Context, w io.Writer, peer *p2p.Peer, addr string, id trace.ID, last int) error {
	res := p2p.NewTraceClient(peer)
	recs, err := p2p.QueryTraces(ctx, res, addr)
	if err != nil {
		return fmt.Errorf("trace dump from %s (is it running with tracing enabled?): %w", addr, err)
	}
	if len(recs) == 0 {
		fmt.Fprintln(w, "no traces recorded")
		return nil
	}
	if id != "" {
		root, orphans := trace.BuildTree(recs, id)
		if root == nil {
			return fmt.Errorf("trace %s not found at %s", id, addr)
		}
		fmt.Fprint(w, root.Format())
		for _, o := range orphans {
			fmt.Fprintln(w, "(detached)")
			fmt.Fprint(w, o.Format())
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
	fmt.Fprintf(w, "%-24s %-24s %-6s %-12s %s\n", "TRACE", "ROOT", "SPANS", "DURATION", "START")
	for _, ti := range order {
		fmt.Fprintf(w, "%-24s %-24s %-6d %-12v %s\n",
			ti.id, ti.root, ti.spans, ti.end.Sub(ti.start).Round(time.Microsecond),
			ti.start.Format(time.RFC3339Nano))
	}
	fmt.Fprintln(w, "\nuse -trace-id <TRACE> to print a span tree")
	return nil
}

func showCoordinator(ctx context.Context, w io.Writer, peer *p2p.Peer, rdvAddr string, gid p2p.ID) error {
	members, err := groupMembers(ctx, peer, rdvAddr, gid)
	if err != nil {
		return err
	}
	if len(members) == 0 {
		return errors.New("group has no members")
	}
	res := p2p.NewResolverOn(peer, bpeer.ProtoBinding)
	var lastErr error
	for _, m := range members {
		coord, pipeID, err := bpeer.QueryCoordinator(ctx, res, m.Addr)
		if err != nil {
			lastErr = err
			continue
		}
		fmt.Fprintf(w, "coordinator: %s\n", coord)
		if pipeID != "" {
			fmt.Fprintf(w, "service pipe: %s\n", pipeID)
		}
		return nil
	}
	return fmt.Errorf("no member answered: %w", lastErr)
}
