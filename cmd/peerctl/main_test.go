package main

import (
	"context"
	"testing"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// startOverlay brings up a TCP rendezvous plus one b-peer for the
// peerctl commands to inspect.
func startOverlay(t *testing.T) (rdvAddr string, gid p2p.ID) {
	t.Helper()
	tr, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	gen := p2p.NewIDGen(1)
	rdv := p2p.NewPeer("rdv", gen.New(p2p.PeerIDKind), tr)
	tracer := trace.NewSeeded(trace.NewCollector(64), 1)
	rdv.SetTracer(tracer)
	p2p.ServeTraces(rdv, tracer.Collector())
	p2p.NewRendezvousService(rdv, 30*time.Second)
	index, err := p2p.NewIndexNode(rdv, p2p.GossipConfig{})
	if err != nil {
		t.Fatalf("index node: %v", err)
	}
	rdv.Start()
	index.Run()
	t.Cleanup(func() { _ = rdv.Close() })
	// Record a span so the trace command has something to index.
	tracer.StartRemote(trace.SpanContext{}, "test.root").End()

	btr, err := simnet.NewTCPTransport("127.0.0.1:0")
	if err != nil {
		t.Fatalf("bpeer transport: %v", err)
	}
	gid = gen.New(p2p.GroupIDKind)
	records := backend.SeedStudents(3, 1)
	bp, err := bpeer.New(btr, bpeer.Config{
		Name:      "bp-1",
		Rank:      1,
		GroupID:   gid,
		GroupName: "StudentManagement",
		Signature: ontology.Signature{
			Action:  ontology.ConceptStudentInformation,
			Inputs:  []string{ontology.ConceptStudentID},
			Outputs: []string{ontology.ConceptStudentInfo},
		},
		QoS:            qos.Profile{Reliability: 0.9},
		RendezvousAddr: rdv.Addr(),
		Handler: bpeer.HandlerFunc(func(_ context.Context, _ string, _ []byte) ([]byte, error) {
			_ = records
			return []byte("<ok/>"), nil
		}),
	})
	if err != nil {
		t.Fatalf("bpeer: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := bp.Start(ctx); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = bp.Close() })

	// Wait for self-election so "coordinator" answers.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && bp.Coordinator() == "" {
		time.Sleep(10 * time.Millisecond)
	}
	return rdv.Addr(), gid
}

func TestPeerctlCommands(t *testing.T) {
	rdvAddr, gid := startOverlay(t)
	for _, cmd := range []string{"members", "advertisements", "coordinator", "trace"} {
		if err := run([]string{"-rendezvous", rdvAddr, "-group", string(gid), cmd}); err != nil {
			t.Errorf("peerctl %s: %v", cmd, err)
		}
	}
	// A span-tree dump of an unknown trace reports an error.
	if err := run([]string{"-rendezvous", rdvAddr, "-trace-id", "no-such-trace", "trace"}); err == nil {
		t.Error("unknown trace ID should fail")
	}
}

func TestPeerctlGossipCommands(t *testing.T) {
	// The rendezvous is the discovery ring's node 0: on an unsharded
	// deployment the fleet commands inspect it.
	rdvAddr, _ := startOverlay(t)
	if err := run([]string{"-rendezvous", rdvAddr, "-peer", rdvAddr, "gossip"}); err != nil {
		t.Errorf("peerctl gossip: %v", err)
	}
	if err := run([]string{"-rendezvous", rdvAddr, "-shards", rdvAddr, "shards"}); err != nil {
		t.Errorf("peerctl shards: %v", err)
	}
	// Every shard down: the table prints errors and the command fails.
	if err := run([]string{"-rendezvous", rdvAddr, "-shards", "127.0.0.1:1", "shards"}); err == nil {
		t.Error("shards with an unreachable fleet should fail")
	}
}

func TestPeerctlValidation(t *testing.T) {
	if err := run([]string{"members"}); err == nil {
		t.Error("missing -rendezvous should fail")
	}
	if err := run([]string{"-rendezvous", "127.0.0.1:1"}); err == nil {
		t.Error("missing command should fail")
	}
	if err := run([]string{"-rendezvous", "127.0.0.1:1", "nonsense"}); err == nil {
		t.Error("unknown command should fail")
	}
	for _, cmd := range []string{"breakers", "cache", "loadctl", "journal"} {
		if err := run([]string{"-rendezvous", "127.0.0.1:1", cmd}); err == nil {
			t.Errorf("%s without -peer should fail", cmd)
		}
	}
	if err := run([]string{"-rendezvous", "127.0.0.1:1", "shards"}); err == nil {
		t.Error("shards without -shards should fail")
	}
}
