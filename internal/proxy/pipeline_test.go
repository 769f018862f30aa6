package proxy

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/gossip"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
	"whisper/internal/replog"
	"whisper/internal/trace"
)

// TestClassify pins the single classifier: every attempt result maps to
// exactly one outcome, and every outcome settles the breakers one way
// or the other.
func TestClassify(t *testing.T) {
	timeout := errors.New("pipe: call timed out")
	tests := []struct {
		name     string
		err      error
		resp     bpeer.Response
		siblings bool
		want     outcome
		healthy  bool
	}{
		{"ok", nil, bpeer.Response{Status: "ok"}, false, outOK, true},
		{"application error", nil, bpeer.Response{Status: "error", Error: "student not enrolled"}, true, outAppError, true},
		{"redirect", nil, bpeer.Response{Status: "redirect", Coordinator: "x"}, false, outRedirect, true},
		{"transport error, coordinator", timeout, bpeer.Response{}, false, outInfraWait, false},
		{"transport error, siblings", timeout, bpeer.Response{}, true, outInfraNext, false},
		{"no coordinator elected", nil, bpeer.Response{Status: "error", Error: bpeer.ErrMsgNoCoordinator}, false, outInfraWait, false},
		// A live replica reporting an election is worth waiting for even
		// when siblings exist: they are in the same election.
		{"read index unavailable, siblings", nil, bpeer.Response{Status: "error", Error: bpeer.ErrMsgReadUnavailable}, true, outInfraWait, false},
		{"unknown status, coordinator", nil, bpeer.Response{Status: "maybe"}, false, outInfraWait, false},
		{"unknown status, siblings", nil, bpeer.Response{Status: "maybe"}, true, outInfraNext, false},
		{"empty status", nil, bpeer.Response{}, true, outInfraNext, false},
	}
	for _, tt := range tests {
		got := classify(tt.err, tt.resp, tt.siblings)
		if got != tt.want || got.healthy() != tt.healthy {
			t.Errorf("%s: classify = %d (healthy %v), want %d (healthy %v)", tt.name, got, got.healthy(), tt.want, tt.healthy)
		}
	}
}

// Scripted replies for fakeGroup, one consumed per pipe call.
const (
	replyDrop     = "drop"     // no reply: the call times out
	replyGarbage  = "garbage"  // an undecodable reply
	replyRedirect = "redirect" // "ask the other replica", which becomes coordinator
	replyElecting = `<PeerResponse Status="error"><Error>` + bpeer.ErrMsgNoCoordinator + `</Error></PeerResponse>`
	replyRejected = `<PeerResponse Status="error"><Error>student not enrolled</Error></PeerResponse>`
)

// fakeGroup is a two-replica b-peer group that speaks just enough of
// the binding and pipe protocols for the proxy to bind to it, and
// answers service calls from a script instead of a backend.
type fakeGroup struct {
	gid   p2p.ID
	addrs []string // ascending rank: addrs[1] starts as coordinator
	joins []func(context.Context) error

	mu     sync.Mutex
	coord  string
	script []string
}

func newFakeGroup(t *testing.T, f *fixture) *fakeGroup {
	t.Helper()
	g := &fakeGroup{gid: f.gen.New(p2p.GroupIDKind)}
	for rank := int64(1); rank <= 2; rank++ {
		peer := p2p.NewPeer(fmt.Sprintf("fake-%d", rank), f.gen.New(p2p.PeerIDKind), f.port(t, "fake"))
		addr := peer.Addr()
		in := p2p.NewPipeService(peer, f.gen).Bind("service", p2p.UnicastPipe)
		pipeID := string(in.Advertisement().PipeID)
		res := p2p.NewResolverOn(peer, bpeer.ProtoBinding)
		res.RegisterHandler("bpeer.coordinator", func(string, []byte) ([]byte, error) {
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.coord == addr {
				return []byte(fmt.Sprintf("%s %d %s", addr, rank, pipeID)), nil
			}
			return []byte(g.coord), nil
		})
		res.RegisterHandler("bpeer.pipe", func(string, []byte) ([]byte, error) {
			return []byte(addr + " " + pipeID), nil
		})
		members, pub := p2p.NewGossipClient(peer), gossip.NewPublisher(peer.Name(), nil)
		adv := peer.Advertisement()
		adv.GID, adv.Rank = g.gid, rank
		raw, err := adv.MarshalAdv()
		if err != nil {
			t.Fatal(err)
		}
		g.joins = append(g.joins, func(ctx context.Context) error {
			_, err := members.PublishMember(ctx, []string{"rdv"}, pub.Entry(string(adv.PID), raw, 2*time.Second))
			return err
		})
		peer.Start()
		t.Cleanup(func() { _ = peer.Close() })
		go func() {
			for {
				select {
				case pm := <-in.Messages():
					if reply := g.next(addr); reply != nil {
						_ = in.Reply(pm, reply)
					}
				case <-in.Done():
					return
				}
			}
		}()
		t.Cleanup(in.Close)
		g.addrs = append(g.addrs, addr)
	}
	g.coord = g.addrs[1]
	return g
}

// play (re-)joins the group, so the lease never lapses mid-test,
// and loads the next script.
func (g *fakeGroup) play(t *testing.T, script ...string) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for _, join := range g.joins {
		if err := join(ctx); err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	g.mu.Lock()
	g.script = script
	g.mu.Unlock()
}

// next pops the script's next reply for a call that reached addr.
func (g *fakeGroup) next(addr string) []byte {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.script) == 0 {
		return []byte(`<PeerResponse Status="ok"></PeerResponse>`)
	}
	step := g.script[0]
	g.script = g.script[1:]
	switch step {
	case replyDrop:
		return nil
	case replyRedirect:
		other := g.addrs[0]
		if other == addr {
			other = g.addrs[1]
		}
		g.coord = other
		return []byte(`<PeerResponse Status="redirect"><Coordinator>` + other + `</Coordinator></PeerResponse>`)
	}
	return []byte(step)
}

// TestOneFailureScriptTwoPolicies drives the same scripted failures
// through each replica policy and checks everything an operator can
// observe: the span sequence, the health counters, the tracker, the
// re-binding count and the breaker state. What differs between the
// policies is only what replicas.go says differs: a transport failure
// (or an undecodable reply) waits for the election under the
// coordinator policy and moves straight to a sibling under follower
// reads; a redirect re-binds the coordinator policy and merely drops a
// replica under follower reads.
func TestOneFailureScriptTwoPolicies(t *testing.T) {
	const (
		b, rb, c, w = "bind", "re-bind", "call", "election-wait"
	)
	policies := []struct {
		name    string
		readOps []string
		// First invocation: lost call, corrupted reply, redirect,
		// "no coordinator elected", application error.
		spans1  []string
		sleeps1 int64
		rebinds int64
		calls   [2]int64 // tracker observations per replica, by rank
		// Second invocation: three infrastructure failures in a row
		// open the group breaker; the fourth attempt is shed.
		spans2  []string
		sleeps2 int64
	}{
		{
			name:    "coordinator",
			spans1:  []string{b, c, w, rb, c, w, rb, c, rb, c, w, rb, c},
			sleeps1: 3,
			rebinds: 1,              // the redirect named a new coordinator
			calls:   [2]int64{2, 2}, // the redirect itself is not an observation
			spans2:  []string{b, c, w, rb, c, w, rb, c, w},
			sleeps2: 3,
		},
		{
			name:    "weighted-read",
			readOps: []string{"Op"},
			spans1:  []string{b, c, rb, c, rb, c, rb, c, w, rb, c},
			sleeps1: 1,
			calls:   [2]int64{3, 1},
			spans2:  []string{b, c, rb, c, rb, c, w},
			sleeps2: 1,
		},
	}
	for _, pol := range policies {
		t.Run(pol.name, func(t *testing.T) {
			f := newFixture(t)
			g := newFakeGroup(t, f)
			col := trace.NewCollector(256)
			// The weighted draw follows the selector; a reliability-only
			// weighting over a tracker the test owns makes it prefer the
			// higher-ranked replica whenever that one is in the set, which
			// is also where the coordinator policy starts.
			tr := qos.NewTracker()
			for i := 0; i < 20; i++ {
				tr.Observe(g.addrs[0], 0, false)
				tr.Observe(g.addrs[1], 0, true)
			}
			p := f.addProxy(t, Config{
				Tracer:           trace.New(col),
				Selector:         qos.NewSelector(tr, qos.Weights{Reliability: 1}),
				CallTimeout:      60 * time.Millisecond,
				RetryDelay:       2 * time.Millisecond,
				BreakerThreshold: 3,
				BreakerCooldown:  time.Minute,
			})
			adv := &bpeer.SemanticAdvertisement{GID: g.gid, Name: "fake", ReadOps: pol.readOps}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			spans := func() []string {
				var names []string
				for _, r := range col.Snapshot() {
					switch r.Name {
					case b, rb, c, w:
						names = append(names, r.Name)
					}
				}
				col.Reset()
				return names
			}
			health := func(want map[string]int64) {
				t.Helper()
				if got := p.Health().Snapshot(); !reflect.DeepEqual(got, want) {
					t.Errorf("health counters = %v, want %v", got, want)
				}
			}
			reads := func(m map[string]int64, attempts int64) map[string]int64 {
				if pol.readOps != nil {
					m["reads.balanced"] = attempts
				}
				return m
			}

			g.play(t, replyDrop, replyGarbage, replyRedirect, replyElecting, replyRejected)
			_, err := p.InvokeGroup(ctx, adv, "Op", nil)
			var appErr *ApplicationError
			if !errors.As(err, &appErr) || appErr.Msg != "student not enrolled" {
				t.Fatalf("first invocation: err = %v, want the application error", err)
			}
			if got := spans(); !reflect.DeepEqual(got, pol.spans1) {
				t.Errorf("first invocation spans = %v, want %v", got, pol.spans1)
			}
			health(reads(map[string]int64{"calls.attempted": 5, "backoff.sleeps": pol.sleeps1}, 5))
			if got := p.Rebinds(); got != pol.rebinds {
				t.Errorf("Rebinds() = %d, want %d", got, pol.rebinds)
			}
			for i, addr := range g.addrs {
				_, ratio, calls, _ := p.Tracker().Observed(addr)
				if calls != pol.calls[i] || ratio != 0 {
					t.Errorf("tracker[rank %d] = %d calls at success ratio %v, want %d at 0", i+1, calls, ratio, pol.calls[i])
				}
			}
			if got := p.BreakerStates()[g.gid]; got != BreakerClosed {
				t.Errorf("group breaker = %v after an application error, want closed", got)
			}

			g.play(t, replyDrop, replyGarbage, replyElecting)
			if _, err := p.InvokeGroup(ctx, adv, "Op", nil); !errors.Is(err, ErrCircuitOpen) {
				t.Fatalf("second invocation: err = %v, want ErrCircuitOpen", err)
			}
			if got := spans(); !reflect.DeepEqual(got, pol.spans2) {
				t.Errorf("second invocation spans = %v, want %v", got, pol.spans2)
			}
			want := reads(map[string]int64{
				"calls.attempted": 8, "backoff.sleeps": pol.sleeps1 + pol.sleeps2,
				"breaker.opened": 1, "breaker.rejected": 1,
			}, 8)
			health(want)
			if got := p.BreakerStates()[g.gid]; got != BreakerOpen {
				t.Errorf("group breaker = %v after three infrastructure failures, want open", got)
			}

			// An expired context is reported before the open breaker and
			// touches nothing; a live one is shed by it.
			dead, kill := context.WithCancel(ctx)
			kill()
			if _, err := p.InvokeGroup(dead, adv, "Op", nil); !errors.Is(err, context.Canceled) {
				t.Errorf("expired context: err = %v, want context.Canceled", err)
			}
			health(want)
			if _, err := p.InvokeGroup(ctx, adv, "Op", nil); !errors.Is(err, ErrCircuitOpen) {
				t.Errorf("open breaker: err = %v, want ErrCircuitOpen", err)
			}
			want["breaker.rejected"] = 2
			health(want)
			if got := spans(); got != nil {
				t.Errorf("shed invocations recorded spans %v", got)
			}
		})
	}
}

// TestMixedVersionPolicyAdvertisement: a replica built while groups
// could still advertise a load-sharing policy publishes a document
// carrying <Policy>load-sharing</Policy>. The element is ignored: the
// document decodes, the index node files it under no policy attribute
// and answers it by action, and every keyed write to its group goes to
// the coordinator, none round-robin to a sibling.
func TestMixedVersionPolicyAdvertisement(t *testing.T) {
	f := newFixture(t)
	g := newFakeGroup(t, f)
	g.play(t)
	p := f.addProxy(t, Config{}) // registers the advertisement types
	doc := []byte(`<?xml version="1.0" encoding="UTF-8"?>
<SemAdv xmlns="whisper">
  <GID>` + string(g.gid) + `</GID>
  <Name>fake</Name>
  <Action>` + ontology.ConceptStudentInformation + `</Action>
  <Input>` + ontology.ConceptStudentID + `</Input>
  <Output>` + ontology.ConceptStudentInfo + `</Output>
  <QoS>
    <LatencyMillis>5</LatencyMillis>
    <CostPerCall>0</CostPerCall>
    <Reliability>0.99</Reliability>
    <Availability>0.99</Availability>
  </QoS>
  <Policy>load-sharing</Policy>
</SemAdv>
`)
	parsed, err := p2p.ParseAdvertisement(doc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sem, ok := parsed.(*bpeer.SemanticAdvertisement)
	if !ok || sem.GID != g.gid || len(sem.ReadOps) != 0 {
		t.Fatalf("parsed %#v, want the group's semantic advertisement with no read ops", parsed)
	}
	if _, ok := sem.Attributes()["policy"]; ok {
		t.Errorf("attributes = %v, want no policy attribute", sem.Attributes())
	}

	// Published the way the old replica did: its own bytes in a gossip
	// entry at the index node.
	old := p2p.NewPeer("old-replica", f.gen.New(p2p.PeerIDKind), f.port(t, "old"))
	gcli := p2p.NewGossipClient(old)
	dcli := p2p.NewDiscoveryClient(old)
	old.Start()
	t.Cleanup(func() { _ = old.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	entry := gossip.NewPublisher("old-replica", nil).Entry(string(g.gid), doc, time.Minute)
	if applied, err := gcli.Publish(ctx, "rdv", entry); err != nil || !applied {
		t.Fatalf("publish: applied %v, %v", applied, err)
	}
	byPolicy, err := dcli.RemoteGetAdvertisements(ctx, []string{"rdv"}, bpeer.SemanticAdvType, "policy", "load-sharing", 0)
	if err != nil || len(byPolicy) != 0 {
		t.Errorf("index answered %d advertisements by policy (%v), want none", len(byPolicy), err)
	}

	matches, err := p.FindPeerGroupAdv(ctx, studentSig())
	if err != nil || len(matches) != 1 || matches[0].Adv.GID != g.gid {
		t.Fatalf("find by action: %d matches, %v; want the old group", len(matches), err)
	}
	const writes = 4
	for i := 0; i < writes; i++ {
		kctx := replog.ContextWithKey(ctx, fmt.Sprintf("w-%d", i))
		if _, err := p.Invoke(kctx, studentSig(), "UpdateStudent", nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	// addrs[1] is the coordinator; the follower must never be called.
	for i, want := range []int64{0, writes} {
		if _, _, calls, _ := p.Tracker().Observed(g.addrs[i]); calls != want {
			t.Errorf("rank %d replica served %d writes, want %d", i+1, calls, want)
		}
	}
}
