package bench

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"whisper/internal/bpeer"
	"whisper/internal/gossip"
	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/proxy"
	"whisper/internal/qos"
	"whisper/internal/simnet"
	"whisper/internal/wire"
)

// corpusIndex is an index node holding the whole E5 corpus, published
// through the gossip plane the way b-peers publish.
type corpusIndex struct {
	t   *testing.T
	net *simnet.Network
	gen *p2p.IDGen
	rdv string
	// advs are the published advertisements in ID order.
	advs []*bpeer.SemanticAdvertisement
}

func (ci *corpusIndex) port(name string) *simnet.Port {
	ci.t.Helper()
	port, err := ci.net.NewPort(name)
	if err != nil {
		ci.t.Fatalf("port %s: %v", name, err)
	}
	return port
}

// peer starts a bare peer on the corpus network.
func (ci *corpusIndex) peer(name string) *p2p.Peer {
	ci.t.Helper()
	p := p2p.NewPeer(name, ci.gen.New(p2p.PeerIDKind), ci.port(name))
	ci.t.Cleanup(func() { _ = p.Close() })
	p.Start()
	return p
}

func newCorpusIndex(t *testing.T) *corpusIndex {
	t.Helper()
	bpeer.EnsureAdvTypes()
	ci := &corpusIndex{
		t:   t,
		net: simnet.NewNetwork(simnet.WithLatency(simnet.ZeroLatency()), simnet.WithSeed(1)),
		gen: p2p.NewIDGen(1),
		rdv: "rdv",
	}
	t.Cleanup(func() { _ = ci.net.Close() })
	rdv := p2p.NewPeer(ci.rdv, ci.gen.New(p2p.PeerIDKind), ci.port(ci.rdv))
	t.Cleanup(func() { _ = rdv.Close() })
	index, err := p2p.NewIndexNode(rdv, p2p.GossipConfig{})
	if err != nil {
		t.Fatalf("index node: %v", err)
	}
	rdv.Start()
	index.Run()
	client := p2p.NewGossipClient(ci.peer("pub"))

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	minter := gossip.NewPublisher("pub", nil)
	for i, e := range discoveryCorpus() {
		adv := bpeer.NewSemanticAdvertisement(ci.gen.New(p2p.GroupIDKind), fmt.Sprintf("%s#%d", e.Name, i), e.Sig,
			qos.Profile{LatencyMillis: 5, Reliability: 0.99, Availability: 0.99})
		raw, err := adv.MarshalAdv()
		if err != nil {
			t.Fatalf("marshal %s: %v", adv.Name, err)
		}
		if ok, err := client.Publish(ctx, ci.rdv, minter.Entry(string(adv.AdvID()), raw, time.Hour)); err != nil || !ok {
			t.Fatalf("publish %s: applied=%v err=%v", adv.Name, ok, err)
		}
		ci.advs = append(ci.advs, adv)
	}
	sort.Slice(ci.advs, func(i, j int) bool { return ci.advs[i].GID < ci.advs[j].GID })
	if got := len(index.Discovery().GetLocalAdvertisements(bpeer.SemanticAdvType, "", "")); got != len(ci.advs) {
		t.Fatalf("index holds %d advertisements, want %d", got, len(ci.advs))
	}
	return ci
}

// TestDiscoveryReplyBytesE5Corpus: an index node answers a query with
// the payload bytes its store received, count- and length-prefixed, and
// for the E5 corpus those are byte for byte what parsing every
// selected advertisement and marshalling it again per query would send
// — for the wildcard, one exact action, a closure of actions and a
// limit.
func TestDiscoveryReplyBytesE5Corpus(t *testing.T) {
	ci := newCorpusIndex(t)
	query := p2p.NewResolverOn(ci.peer("probe"), p2p.ProtoDiscovery)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	all := make([]p2p.Advertisement, len(ci.advs))
	for i, adv := range ci.advs {
		all[i] = adv
	}

	closure := []string{
		ontology.ConceptStudentInformation,
		ontology.UniversityNS + "#StudentLookup",
		ontology.UniversityNS + "#AcademicAction",
		ontology.UniversityNS + "#NobodyAdvertisesThis",
	}
	for _, tc := range []struct {
		name    string
		attr    string
		actions []string // nil selects every advertisement
		limit   int
	}{
		{name: "wildcard"},
		{name: "exact", attr: "action", actions: closure[:1]},
		{name: "closure", attr: "action", actions: closure},
		{name: "limit", limit: 3},
	} {
		// The query's wire form: type, attribute, values, zigzag limit.
		q := wire.AppendString(wire.AppendString(nil, bpeer.SemanticAdvType), tc.attr)
		q = wire.AppendUvarint(q, uint64(len(tc.actions)))
		for _, action := range tc.actions {
			q = wire.AppendString(q, action)
		}
		got, err := query.Query(ctx, ci.rdv, "discovery.query", wire.AppendVarint(q, int64(tc.limit)))
		if err != nil {
			t.Fatalf("%s query: %v", tc.name, err)
		}
		// Reference: marshal each selected advertisement again, in ID
		// order, behind a uvarint count and per-document uvarint lengths.
		var docs [][]byte
		for _, adv := range all {
			if tc.actions != nil && !slices.Contains(tc.actions, adv.Attributes()["action"]) {
				continue
			}
			raw, err := adv.MarshalAdv()
			if err != nil {
				t.Fatal(err)
			}
			docs = append(docs, raw)
		}
		if tc.limit > 0 {
			docs = docs[:tc.limit]
		}
		if len(docs) == 0 {
			t.Fatalf("%s: the reference selects nothing", tc.name)
		}
		want := binary.AppendUvarint(nil, uint64(len(docs)))
		for _, doc := range docs {
			want = append(binary.AppendUvarint(want, uint64(len(doc))), doc...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: reply differs from the re-marshalled reference: got %d bytes, want %d bytes (%d documents)",
				tc.name, len(got), len(want), len(docs))
		}
	}
}

// TestKeyedDiscoveryMatchesFullCorpusE5: the proxy asks the index for
// the request action's subsumption closure, not for the catalogue, and
// loses nothing by it. For every signature of the E5 corpus used as a
// request and every threshold, a fresh proxy's FindPeerGroupAdv returns
// exactly the groups — same order, degree and score — that the matcher
// and the proxy's ranking select from the whole corpus.
func TestKeyedDiscoveryMatchesFullCorpusE5(t *testing.T) {
	ci := newCorpusIndex(t)
	reasoner := ontology.NewReasoner(ontology.Combined())
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	type found struct {
		GID    p2p.ID
		Degree ontology.MatchDegree
		Score  float64
	}
	// reference runs the matcher over the full corpus in the order the
	// proxy scans a cache holding all of it (exact-action index hits,
	// then the rest, each in ID order) and ranks like proxy.rank with a
	// fresh tracker.
	reference := func(sig ontology.Signature, min ontology.MatchDegree) []found {
		sel := qos.NewSelector(qos.NewTracker(), qos.Weights{})
		var out []found
		var score []float64
		scan := func(exactAction bool) {
			for _, adv := range ci.advs {
				if (adv.Action == sig.Action) != exactAction {
					continue
				}
				if m := reasoner.MatchSignature(adv.Signature(), sig); m.Degree.Satisfies(min) {
					out = append(out, found{adv.GID, m.Degree, m.Score})
					score = append(score, sel.Score(qos.Candidate{Peer: string(adv.GID), Profile: adv.QoS, SemanticScore: m.Score}))
				}
			}
		}
		scan(true)
		scan(false)
		order := make([]int, len(out))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			i, j := order[a], order[b]
			if out[i].Degree != out[j].Degree {
				return out[i].Degree < out[j].Degree
			}
			return score[i] > score[j]
		})
		ranked := make([]found, len(out))
		for k, i := range order {
			ranked[k] = out[i]
		}
		return ranked
	}

	asked, shipped := 0, uint64(0)
	for i, e := range discoveryCorpus() {
		for _, min := range []ontology.MatchDegree{ontology.MatchExact, ontology.MatchPlugin, ontology.MatchSubsume, ontology.MatchIntersection} {
			name := fmt.Sprintf("probe-%d-%s", i, min)
			p, err := proxy.New(ci.port(name), proxy.Config{
				Name: name, RendezvousAddr: ci.rdv, Reasoner: reasoner, MinDegree: min, IDGen: ci.gen,
			})
			if err != nil {
				t.Fatalf("proxy: %v", err)
			}
			p.Start()
			matches, err := p.FindPeerGroupAdv(ctx, e.Sig)
			if err != nil && !errors.Is(err, proxy.ErrNoMatch) {
				t.Fatalf("find %s at %s: %v", e.Name, min, err)
			}
			var got []found
			for _, m := range matches {
				got = append(got, found{m.Adv.GID, m.Match.Degree, m.Match.Score})
			}
			if want := reference(e.Sig, min); !reflect.DeepEqual(got, want) {
				t.Errorf("request %s (%s) at %s:\n got %v\nwant %v", e.Name, e.Sig.Action, min, got, want)
			}
			asked++
			shipped += p.DiscoveryStats().RemoteAdvs
			_ = p.Close()
		}
	}
	t.Logf("%d lookups over a %d-advertisement corpus shipped %d advertisements", asked, len(ci.advs), shipped)
	// The point of the key set: far fewer documents cross the wire than
	// a catalogue per lookup would.
	if catalogue := uint64(asked * len(ci.advs)); shipped*2 > catalogue {
		t.Errorf("%d lookups shipped %d advertisements; the catalogue each time would be %d", asked, shipped, catalogue)
	}
}
