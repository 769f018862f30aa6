package p2p

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// FuzzDecodeDiscoveryResponse: a querier decodes whatever an index node
// answers, so arbitrary bytes must come back as an error or as
// documents that were sized from bytes actually present and that frame
// again to the same documents. The corpus in testdata/fuzz holds valid
// frames, truncations at every field boundary and forged counts and
// lengths.
func FuzzDecodeDiscoveryResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		docs, err := decodeDocs(data)
		if err != nil {
			return
		}
		if cap(docs) > len(data) {
			t.Fatalf("%d-byte frame sized a %d-document slice", len(data), cap(docs))
		}
		again, err := decodeDocs(encodeDocs(docs))
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if len(docs) != len(again) {
			t.Fatalf("round trip changed the count: %d then %d", len(docs), len(again))
		}
		for i := range docs {
			if !bytes.Equal(docs[i], again[i]) {
				t.Fatalf("round trip changed document %d: %q then %q", i, docs[i], again[i])
			}
		}
	})
}

// FuzzAnswerQuery: an index node answers whatever query document it is
// sent, so arbitrary bytes must come back as an error or as a
// well-formed frame of advertisements the node holds.
func FuzzAnswerQuery(f *testing.F) {
	d := fuzzDiscovery(f)
	f.Fuzz(func(t *testing.T, query []byte) {
		out, err := d.answerQuery("fuzz", query)
		if err != nil {
			return
		}
		docs, err := decodeDocs(out)
		if err != nil {
			t.Fatalf("answer to %q does not decode: %v", query, err)
		}
		for _, raw := range docs {
			adv, err := ParseAdvertisement(raw)
			if err != nil {
				t.Fatalf("answer to %q carries an unparsable document: %v", query, err)
			}
			if len(d.GetLocalAdvertisements(adv.AdvType(), "", "")) == 0 {
				t.Fatalf("answer to %q carries a %s the node does not hold", query, adv.AdvType())
			}
		}
	})
}

// fuzzDiscovery builds a discovery cache holding a few advertisements
// of several types, with XML metacharacters in an attribute.
func fuzzDiscovery(f testing.TB) *DiscoveryService {
	d := benchDiscovery(f, 0)
	for i := 0; i < 6; i++ {
		_ = d.Publish(&ServiceAdvertisement{
			SvcID:     ID(fmt.Sprintf("urn:svc-%d", i)),
			Name:      fmt.Sprintf("Service%d", i),
			Operation: fmt.Sprintf("Operation%d", i%3),
			Desc:      "a & <b>",
		}, time.Hour)
	}
	_ = d.Publish(&PeerGroupAdvertisement{GID: "urn:g1", Name: "students"}, time.Hour)
	_ = d.Publish(&PipeAdvertisement{PipeID: "urn:p1", Kind: UnicastPipe, Name: "in", Addr: "a:1"}, time.Hour)
	return d
}

// FuzzParseAdvertisement: advertisement documents arrive from other
// peers, so arbitrary bytes must come back as an error or as an
// advertisement whose own document parses to an equal one.
func FuzzParseAdvertisement(f *testing.F) {
	EnsureBuiltinAdvTypes()
	f.Fuzz(func(t *testing.T, data []byte) {
		adv, err := ParseAdvertisement(data)
		if err != nil {
			return
		}
		raw, err := adv.MarshalAdv()
		if err != nil {
			t.Fatalf("parsed advertisement does not marshal: %v", err)
		}
		again, err := ParseAdvertisement(raw)
		if err != nil {
			t.Fatalf("re-marshalled advertisement does not parse: %v\n%s", err, raw)
		}
		if !reflect.DeepEqual(adv, again) {
			t.Fatalf("round trip changed the advertisement:\n first %+v\nsecond %+v", adv, again)
		}
	})
}

// TestDiscoveryQueryCodec: the query survives the trip — a negative limit
// too, which is a zigzag varint and asks for every match as it does
// locally — and refuses every strict prefix and a trailing byte.
func TestDiscoveryQueryCodec(t *testing.T) {
	for name, q := range map[string]discoveryQueryDoc{
		"type only":      {Type: ServiceAdvType},
		"values":         {Type: ServiceAdvType, Attr: "Name", Values: []string{"a & <b>", "Student*", ""}},
		"limit":          {Type: ServiceAdvType, Limit: 3},
		"negative limit": {Type: ServiceAdvType, Limit: -1},
		"zero":           {},
	} {
		data := q.encode()
		got, err := decodeDiscoveryQuery(data)
		if err != nil || !reflect.DeepEqual(got, q) {
			t.Errorf("%s: got %+v, %v; want %+v", name, got, err, q)
		}
		for i := range data {
			if _, err := decodeDiscoveryQuery(data[:i]); err == nil {
				t.Errorf("%s: decoded truncated at byte %d of %d", name, i, len(data))
			}
		}
		if _, err := decodeDiscoveryQuery(append(data, 0)); err == nil {
			t.Errorf("%s: decoded with a trailing byte", name)
		}
	}
	d := fuzzDiscovery(t)
	out, err := d.answerQuery("", (&discoveryQueryDoc{Type: ServiceAdvType, Limit: -1}).encode())
	if docs, derr := decodeDocs(out); err != nil || derr != nil || len(docs) != 6 {
		t.Errorf("negative limit answered %d documents, %v %v; want all 6", len(docs), err, derr)
	}
}
