package bpeer

import (
	"encoding/xml"
	"math"
	"reflect"
	"strings"
	"testing"

	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// hostile is what a field may hold: XML metacharacters, the white
// space MarshalIndent escapes, non-ASCII text and invalid UTF-8.
const hostile = "a&b<c>d\"e'f\tg\nh\ri é世🙂 ]]> \xff\xfe!"

// allAdvs builds one advertisement of each registered type with every
// string field set to s.
func allAdvs(s string) []p2p.Advertisement {
	return []p2p.Advertisement{
		&p2p.PeerAdvertisement{PID: p2p.ID(s), Name: s, Addr: s, Rank: -3, Term: 7, Desc: s},
		&p2p.PeerGroupAdvertisement{GID: p2p.ID(s), Name: s, Desc: s},
		&p2p.PipeAdvertisement{PipeID: p2p.ID(s), Kind: p2p.PipeKind(s), Name: s, Addr: s},
		&p2p.ServiceAdvertisement{SvcID: p2p.ID(s), Name: s, Operation: s, PipeID: p2p.ID(s), Addr: s, Desc: s},
		&SemanticAdvertisement{GID: p2p.ID(s), Name: s, Action: s, Inputs: []string{s, s + "2"},
			Outputs: []string{s}, ReadOps: []string{s}, Desc: s,
			QoS: qos.Profile{LatencyMillis: 5, CostPerCall: 0.1, Reliability: 0.99, Availability: 0.999}},
	}
}

// xmlOracle decodes data with encoding/xml into a fresh value of adv's
// type.
func xmlOracle(adv p2p.Advertisement, data []byte) (p2p.Advertisement, error) {
	fresh := reflect.New(reflect.TypeOf(adv).Elem()).Interface().(p2p.Advertisement)
	return fresh, xml.Unmarshal(data, fresh)
}

// FuzzAdvertisementAgreesWithXML: the one-pass reader accepts a subset
// of what encoding/xml does and decodes it to the same value, and it
// accepts every document MarshalAdv writes, whatever its fields hold.
// The corpus in testdata/fuzz holds the forms the reader accepts and
// those it refuses (DESIGN.md §8 "Response frame").
func FuzzAdvertisementAgreesWithXML(f *testing.F) {
	EnsureAdvTypes()
	f.Fuzz(func(t *testing.T, data []byte, field string) {
		if adv, err := p2p.ParseAdvertisement(data); err == nil {
			want, err := xmlOracle(adv, data)
			if err != nil {
				t.Fatalf("accepted a document encoding/xml refuses (%v):\n%q", err, data)
			}
			if !reflect.DeepEqual(adv, want) {
				t.Fatalf("decoded %q\n  to %+v\nwant %+v", data, adv, want)
			}
		}
		for _, adv := range allAdvs(field) {
			raw, err := adv.MarshalAdv()
			if err != nil {
				t.Fatalf("%s: marshal: %v", adv.AdvType(), err)
			}
			back, err := p2p.ParseAdvertisement(raw)
			if err != nil {
				t.Fatalf("%s: the document MarshalAdv wrote does not parse: %v\n%q", adv.AdvType(), err, raw)
			}
			if want, _ := xmlOracle(adv, raw); !reflect.DeepEqual(back, want) {
				t.Fatalf("%s: decoded %+v, encoding/xml %+v", adv.AdvType(), back, want)
			}
		}
	})
}

// TestAdvertisementsRoundTripHostileStrings: every type carries any
// string through MarshalAdv and back; what MarshalIndent cannot write
// (invalid UTF-8, characters outside XML's Char production) comes back
// as U+FFFD, byte for byte.
func TestAdvertisementsRoundTripHostileStrings(t *testing.T) {
	EnsureAdvTypes()
	want := strings.NewReplacer("\xff", "�", "\xfe", "�", "\x01", "�").Replace
	for _, s := range []string{hostile, "", " lead and trail ", "\x01", "&amp;&#x9;"} {
		for i, adv := range allAdvs(s) {
			raw, err := adv.MarshalAdv()
			if err != nil {
				t.Fatalf("%s: marshal: %v", adv.AdvType(), err)
			}
			back, err := p2p.ParseAdvertisement(raw)
			if err != nil {
				t.Fatalf("%s: parse %q: %v", adv.AdvType(), raw, err)
			}
			expect := allAdvs(want(s))[i]
			space, local, _ := strings.Cut(expect.AdvType(), ":")
			reflect.ValueOf(expect).Elem().FieldByName("XMLName").Set(reflect.ValueOf(xml.Name{Space: space, Local: local}))
			if sem, ok := expect.(*SemanticAdvertisement); ok && s == "" {
				sem.ReadOps = nil // omitempty drops each empty element of a list
			}
			if !reflect.DeepEqual(back, expect) {
				t.Errorf("%s: %q came back as %#v, want %#v", adv.AdvType(), s, back, expect)
			}
		}
	}
}

// TestSemanticAdvertisementQoSNumbers: QoS figures decode as
// encoding/xml decodes them, empty as zero and padded with white space;
// NaN is refused.
func TestSemanticAdvertisementQoSNumbers(t *testing.T) {
	EnsureAdvTypes()
	doc := func(latency string) []byte {
		return []byte(`<SemAdv xmlns="whisper"><GID>g</GID><QoS><LatencyMillis>` + latency +
			`</LatencyMillis></QoS></SemAdv>`)
	}
	for latency, want := range map[string]float64{"": 0, " 2.5\n": 2.5, "-0": 0, "+Inf": math.Inf(1), "1e3": 1000} {
		adv, err := p2p.ParseAdvertisement(doc(latency))
		if err != nil {
			t.Errorf("%q: %v", latency, err)
			continue
		}
		if got := adv.(*SemanticAdvertisement).QoS.LatencyMillis; got != want {
			t.Errorf("%q: latency %v, want %v", latency, got, want)
		}
	}
	for _, latency := range []string{"NaN", "nan", "fast", " ", "&#49;", "1e999"} {
		if _, err := p2p.ParseAdvertisement(doc(latency)); err == nil {
			t.Errorf("%q: accepted", latency)
		}
	}
}

// TestAdvertisementMarshalGolden pins MarshalAdv's bytes: the decoder
// changed, the encoder did not, so every published document, digest
// and byte count stays what an older build produces.
func TestAdvertisementMarshalGolden(t *testing.T) {
	golden := []string{
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<PA xmlns=\"jxta\">\n  <PID>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</PID>\n  <Name>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Name>\n  <Addr>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Addr>\n  <Rank>-3</Rank>\n  <Term>7</Term>\n  <Desc>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Desc>\n</PA>\n",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<PGA xmlns=\"jxta\">\n  <GID>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</GID>\n  <Name>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Name>\n  <Desc>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Desc>\n</PGA>\n",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<PipeAdv xmlns=\"jxta\">\n  <Id>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Id>\n  <Type>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Type>\n  <Name>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Name>\n  <Addr>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Addr>\n</PipeAdv>\n",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<SvcAdv xmlns=\"jxta\">\n  <SvcID>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</SvcID>\n  <Name>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Name>\n  <Operation>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Operation>\n  <PipeID>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</PipeID>\n  <Addr>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Addr>\n  <Desc>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Desc>\n</SvcAdv>\n",
		"<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<SemAdv xmlns=\"whisper\">\n  <GID>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</GID>\n  <Name>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Name>\n  <Action>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Action>\n  <Input>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Input>\n  <Input>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd2</Input>\n  <Output>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Output>\n  <QoS>\n    <LatencyMillis>5</LatencyMillis>\n    <CostPerCall>0.1</CostPerCall>\n    <Reliability>0.99</Reliability>\n    <Availability>0.999</Availability>\n  </QoS>\n  <ReadOp>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</ReadOp>\n  <Desc>a&amp;b&lt;c&gt;&#34;&#39;&#x9;&#xA;&#xD;\u00e9\ufffd</Desc>\n</SemAdv>\n",
	}
	for i, adv := range allAdvs("a&b<c>\"'\t\n\ré\xff") {
		raw, err := adv.MarshalAdv()
		if err != nil {
			t.Fatalf("%s: marshal: %v", adv.AdvType(), err)
		}
		if i >= len(golden) || string(raw) != golden[i] {
			t.Errorf("%s: MarshalAdv wrote\n%+q", adv.AdvType(), raw)
		}
	}
}

// BenchmarkParseSemanticAdvertisement: what a cold lookup pays per
// candidate the index returns — one semantic advertisement document
// decoded by the registry.
func BenchmarkParseSemanticAdvertisement(b *testing.B) {
	EnsureAdvTypes()
	adv := NewSemanticAdvertisement("urn:jxta:group-bench", "StudentManagement", studentSig(),
		qos.Profile{LatencyMillis: 5, CostPerCall: 0.1, Reliability: 0.99, Availability: 0.999})
	raw, err := adv.MarshalAdv()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := p2p.ParseAdvertisement(raw); err != nil {
			b.Fatal(err)
		}
	}
}
