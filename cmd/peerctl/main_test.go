package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"whisper/internal/backend"
	"whisper/internal/bpeer"
	"whisper/internal/core"
	"whisper/internal/loadctl"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/replog"
	"whisper/internal/simnet"
	"whisper/internal/trace"
)

// startOverlay brings up a TCP rendezvous plus one b-peer, with one
// read-only operation, for the peerctl commands to inspect.
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
		ReadOnlyOps:    []string{"StudentInformation"},
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
	out := map[string]*bytes.Buffer{}
	for _, cmd := range []string{"members", "advertisements", "coordinator", "trace", "readindex"} {
		out[cmd] = &bytes.Buffer{}
		if err := run([]string{"-rendezvous", rdvAddr, "-group", string(gid), cmd}, out[cmd]); err != nil {
			t.Errorf("peerctl %s: %v", cmd, err)
		}
	}
	if !strings.Contains(out["advertisements"].String(), "\n  read ops: [StudentInformation]\n") {
		t.Errorf("advertisements lack the read ops line:\n%s", out["advertisements"])
	}
	// A span-tree dump of an unknown trace reports an error.
	if err := run([]string{"-rendezvous", rdvAddr, "-trace-id", "no-such-trace", "trace"}, io.Discard); err == nil {
		t.Error("unknown trace ID should fail")
	}
}

func TestPeerctlGossipCommands(t *testing.T) {
	// The rendezvous is the discovery ring's node 0: on an unsharded
	// deployment the fleet commands inspect it.
	rdvAddr, _ := startOverlay(t)
	var out bytes.Buffer
	if err := run([]string{"-rendezvous", rdvAddr, "-shards", rdvAddr, "shards"}, &out); err != nil {
		t.Errorf("peerctl shards: %v", err)
	}
	// One advertisement and one membership on the shard, read from its
	// status.
	if row := strings.Fields(strings.Split(out.String(), "\n")[1]); len(row) < 4 || row[2] != "2" || row[3] != "2" {
		t.Errorf("shard row %q, want 2 entries and 2 live:\n%s", row, &out)
	}
	// Every shard down: the table prints errors and the command fails.
	if err := run([]string{"-rendezvous", rdvAddr, "-shards", "127.0.0.1:1", "shards"}, io.Discard); err == nil {
		t.Error("shards with an unreachable fleet should fail")
	}
}

func TestPeerctlValidation(t *testing.T) {
	if err := run([]string{"members"}, io.Discard); err == nil {
		t.Error("missing -rendezvous should fail")
	}
	if err := run([]string{"-rendezvous", "127.0.0.1:1"}, io.Discard); err == nil {
		t.Error("missing command should fail")
	}
	for _, cmd := range []string{"nonsense", "breakers", "cache", "loadctl", "journal", "gossip"} {
		if err := run([]string{"-rendezvous", "127.0.0.1:1", cmd}, io.Discard); err == nil {
			t.Errorf("unknown command %s should fail", cmd)
		}
	}
	if err := run([]string{"-rendezvous", "127.0.0.1:1", "shards"}, io.Discard); err == nil {
		t.Error("shards without -shards should fail")
	}
}

// status runs "peerctl -peer addr status" and returns its answer, one
// JSON document per section.
func status(t *testing.T, rdvAddr, addr string) map[string]json.RawMessage {
	t.Helper()
	var out bytes.Buffer
	if err := run([]string{"-rendezvous", rdvAddr, "-peer", addr, "status"}, &out); err != nil {
		t.Fatalf("peerctl status of %s: %v", addr, err)
	}
	var answer map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes(), &answer); err != nil {
		t.Fatalf("decode peerctl status of %s: %v\n%s", addr, err, &out)
	}
	return answer
}

// section decodes the answer's only section, which must be name.
func section(t *testing.T, answer map[string]json.RawMessage, name string, v any) {
	t.Helper()
	if _, ok := answer[name]; !ok || len(answer) != 1 {
		t.Fatalf("status has %d sections, want only %q: %s", len(answer), name, answer)
	}
	if err := json.Unmarshal(answer[name], v); err != nil {
		t.Fatalf("decode %s section: %v\n%s", name, err, answer[name])
	}
}

// TestPeerctlStatus runs the status command over TCP against each kind
// of peer of a live deployment and checks the decoded answers.
func TestPeerctlStatus(t *testing.T) {
	d, err := core.NewDeployment(core.Config{Transport: core.TCPTransport("127.0.0.1:0"), Seed: 1})
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	t.Cleanup(func() { _ = d.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ok := bpeer.HandlerFunc(func(context.Context, string, []byte) ([]byte, error) { return []byte("<ok/>"), nil })
	studentSig := ontology.Signature{Action: ontology.ConceptStudentInformation,
		Inputs: []string{ontology.ConceptStudentID}, Outputs: []string{ontology.ConceptStudentInfo}}
	claimSig := ontology.Signature{Action: ontology.ConceptClaimProcessing,
		Inputs: []string{ontology.ConceptClaimID}, Outputs: []string{ontology.ConceptClaimStatus}}
	students, err := d.DeployGroup(ctx, core.GroupSpec{Name: "Students", Signature: studentSig, Handler: ok, Count: 2})
	if err != nil {
		t.Fatalf("journaled group: %v", err)
	}
	claims, err := d.DeployGroup(ctx, core.GroupSpec{Name: "Claims", Signature: claimSig, Handler: ok, Count: 1, NoJournal: true})
	if err != nil {
		t.Fatalf("unjournaled group: %v", err)
	}
	adm := loadctl.NewController(loadctl.Config{Rate: 0.01, Burst: 1})
	admitted, err := d.NewProxy("admitted", core.ProxyOptions{Admission: adm})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { _ = admitted.Close() })
	open, err := d.NewProxy("open", core.ProxyOptions{})
	if err != nil {
		t.Fatalf("proxy: %v", err)
	}
	t.Cleanup(func() { _ = open.Close() })

	// alice's one token admits one write to the journaled group and
	// sheds the next; the open proxy calls the unjournaled group.
	alice := loadctl.ContextWithClient(ctx, "alice")
	if _, err := admitted.Invoke(alice, studentSig, "Op", []byte("<p/>")); err != nil {
		t.Fatalf("admitted invoke: %v", err)
	}
	if _, err := admitted.Invoke(alice, studentSig, "Op", []byte("<p/>")); !errors.Is(err, loadctl.ErrRejected) {
		t.Fatalf("second invoke: %v, want shed", err)
	}
	if _, err := open.Invoke(ctx, claimSig, "Op", []byte("<p/>")); err != nil {
		t.Fatalf("open invoke: %v", err)
	}
	rdv := d.RendezvousAddr()

	t.Run("proxy-admission-on", func(t *testing.T) {
		var st proxy.Status
		section(t, status(t, rdv, admitted.Addr()), "proxy", &st)
		a := st.Admission
		if a == nil || a.Limit != 4 || a.Admitted != 1 || a.Sheds[loadctl.ReasonRate] != 1 || a.ShedTotal() != 1 {
			t.Errorf("admission = %+v, want limit 4, 1 admitted, 1 shed by rate", a)
		}
		if st.Health["loadctl.shed"] != 1 || st.Health["calls.attempted"] != 1 {
			t.Errorf("health = %v, want 1 shed and 1 call", st.Health)
		}
		if st.Breakers[students.ID()] != proxy.BreakerClosed || len(st.Breakers) != 1 {
			t.Errorf("breakers = %v, want the students group closed", st.Breakers)
		}
		if st.Lookup.Misses != 1 || st.Lookup.RemoteQueries != 1 || st.Match.Misses != 1 || st.Match.Entries != 1 || st.Coordinators != 1 {
			t.Errorf("lookup %+v match %+v coordinators %d, want one cold lookup and one binding", st.Lookup, st.Match, st.Coordinators)
		}
	})

	t.Run("proxy-admission-off", func(t *testing.T) {
		answer := status(t, rdv, open.Addr())
		var st proxy.Status
		var fields map[string]json.RawMessage
		section(t, answer, "proxy", &st)
		section(t, answer, "proxy", &fields)
		if string(fields["Admission"]) != "null" {
			t.Errorf("admission = %s, want null", fields["Admission"])
		}
		if st.Breakers[claims.ID()] != proxy.BreakerClosed || st.Health["calls.attempted"] != 1 || st.Coordinators != 1 {
			t.Errorf("status = %+v, want one call to the closed claims group", st)
		}
	})

	t.Run("bpeer-unjournaled", func(t *testing.T) {
		bp := claims.Peers()[0]
		var st bpeer.Status
		section(t, status(t, rdv, bp.Addr()), "bpeer", &st)
		if st.Name != bp.Name() || st.Coordinator != bp.Addr() || st.Term == 0 || len(st.ReplicationSet) != 0 || st.Journal != nil {
			t.Errorf("status = %+v, want a lone replica coordinating itself, no journal", st)
		}
	})

	t.Run("index-node", func(t *testing.T) {
		var st p2p.GossipStatus
		section(t, status(t, rdv, rdv), "gossip", &st)
		if st.Store.Entries != 5 || st.Store.Live != 5 || st.Store.Checksum == 0 || st.Engine.Peers != 0 {
			t.Errorf("gossip = %+v, want both groups' advertisements and three memberships on a ring of one", st)
		}
	})

	t.Run("bpeer-journaled", func(t *testing.T) {
		crashed, err := students.CrashCoordinator()
		if err != nil {
			t.Fatalf("crash: %v", err)
		}
		survivor := students.Peers()[0]
		// The survivor's next ping is refused: it suspects the crashed
		// coordinator, which the rendezvous still lists, and succeeds it.
		deadline := time.Now().Add(10 * time.Second)
		for {
			var st bpeer.Status
			section(t, status(t, rdv, survivor.Addr()), "bpeer", &st)
			set, j := st.ReplicationSet, st.Journal
			if st.Coordinator == survivor.Addr() && len(set) == 1 && set[0].Name == crashed && set[0].Suspect {
				if st.Term < 2 || st.DetectRefused < 1 || st.View["view.refresh"] < 1 {
					t.Errorf("group record = %+v, want a second term after a refused ping", st)
				}
				if j == nil || j.NextSeq != 1 || j.HighestCommitted != 1 || len(j.Entries) != 1 ||
					j.Entries[0].Op != "Op" || j.Entries[0].Status != replog.StatusCommitted || j.Counters["apply.commit"] != 1 {
					t.Errorf("journal = %+v, want the one committed write", j)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("survivor's status never showed it succeeding a suspect %s: %+v", crashed, st)
			}
			time.Sleep(50 * time.Millisecond)
		}
	})
}
