package p2p

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
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

// TestAdvReaderRejects: every form outside the subset MarshalAdv writes
// is an error, through the registry and through UnmarshalAdv alike, and
// none panics.
func TestAdvReaderRejects(t *testing.T) {
	EnsureBuiltinAdvTypes()
	const head = `<?xml version="1.0" encoding="UTF-8"?>` + "\n" + `<PA xmlns="jxta">`
	doc := func(body string) string { return head + body + "</PA>\n" }
	for name, data := range map[string]string{
		"empty":                    "",
		"no root":                  `<?xml version="1.0" encoding="UTF-8"?>` + "\n",
		"text before the root":     `x<PA xmlns="jxta"></PA>`,
		"other header":             `<?xml version="1.1"?><PA xmlns="jxta"></PA>`,
		"root without xmlns":       `<PA><PID>p</PID></PA>`,
		"root with two attrs":      `<PA xmlns="jxta" a="b"></PA>`,
		"root with single quotes":  `<PA xmlns='jxta'></PA>`,
		"root prefix":              `<j:PA xmlns:j="jxta"></j:PA>`,
		"unclosed root":            head + `<PID>p</PID>`,
		"truncated in a tag":       head + `<PID`,
		"comment":                  doc(`<!-- c --><PID>p</PID>`),
		"comment in text":          doc(`<PID>p<!-- c --></PID>`),
		"CDATA":                    doc(`<PID><![CDATA[p]]></PID>`),
		"DOCTYPE":                  `<!DOCTYPE PA>` + doc(``),
		"processing instruction":   doc(`<?pi x?>`),
		"child prefix":             doc(`<j:PID>p</j:PID>`),
		"attribute on a child":     doc(`<PID a="1">p</PID>`),
		"self-closing child":       doc(`<PID/>`),
		"control character":        doc("<PID>\x01</PID>"),
		"NUL reference":            doc(`<PID>&#0;</PID>`),
		"U+FFFE reference":         doc(`<PID>&#xFFFE;</PID>`),
		"surrogate reference":      doc(`<PID>&#xD800;</PID>`),
		"reference past U+10FFFF":  doc(`<PID>&#x110000;</PID>`),
		"huge reference":           doc(`<PID>&#99999999999999999999;</PID>`),
		"empty reference":          doc(`<PID>&#;</PID>`),
		"upper-case hex":           doc(`<PID>&#X41;</PID>`),
		"unknown entity":           doc(`<PID>&nbsp;</PID>`),
		"entity without ;":         doc(`<PID>&amp</PID>`),
		"invalid UTF-8":            doc("<PID>\xff</PID>"),
		"encoded U+FFFF":           doc("<PID>\uffff</PID>"),
		"raw CR in text":           doc("<PID>p\rq</PID>"),
		"raw CR between elements":  doc("\r\n<PID>p</PID>"),
		"raw > in text":            doc(`<PID>]]></PID>`),
		"text between elements":    doc(`junk<PID>p</PID>`),
		"reference between them":   doc(`&#x20;<PID>p</PID>`),
		"element in a text field":  doc(`<PID>a<b>c</b></PID>`),
		"mismatched end tag":       doc(`<PID>p</Name>`),
		"end tag with space":       doc(`<PID>p</PID >`),
		"mismatched root end":      head + `</PGA>`,
		"skipped element mismatch": doc(`<Extra><Deep>x</Extra></Deep>`),
		"bad text in skipped":      doc("<Extra>\xff</Extra>"),
		"trailing byte":            doc(`<PID>p</PID>`) + "x",
		"second root":              doc(`<PID>p</PID>`) + `<PA xmlns="jxta"></PA>`,
		"rank not a number":        doc(`<Rank>high</Rank>`),
		"rank blank":               doc(`<Rank> </Rank>`),
		"rank by reference":        doc(`<Rank>&#51;</Rank>`),
		"term overflow":            doc(`<Term>18446744073709551616</Term>`),
		"term negative":            doc(`<Term>-1</Term>`),
	} {
		if adv, err := ParseAdvertisement([]byte(data)); err == nil {
			t.Errorf("%s: ParseAdvertisement accepted %q as %+v", name, data, adv)
		}
		if err := (&PeerAdvertisement{}).UnmarshalAdv([]byte(data)); err == nil {
			t.Errorf("%s: UnmarshalAdv accepted %q", name, data)
		}
	}
	if err := (&PeerAdvertisement{}).UnmarshalAdv([]byte(`<PGA xmlns="jxta"></PGA>`)); err == nil {
		t.Error("a peer advertisement decoded a peer-group document")
	}
}

// TestAdvReaderAccepts: what the reader takes beyond MarshalAdv's exact
// layout — no header, no indentation, references in every spelling,
// repeated fields (the last wins, as in encoding/xml), and unknown
// elements, nested or not, which are skipped.
func TestAdvReaderAccepts(t *testing.T) {
	EnsureBuiltinAdvTypes()
	got, err := ParseAdvertisement([]byte(`<PA xmlns="jxta"><Extra><Deep>x &amp; y</Deep><Deep></Deep></Extra>` +
		`<PID>p&#65;&#x42;&#x0062;&lt;&gt;&quot;&apos;&#x1F642;</PID><Name>a</Name><Name>b</Name>` +
		`<Rank> -4 </Rank><Term></Term><Policy>load-sharing</Policy></PA>` + "\n\t \n"))
	want := &PeerAdvertisement{XMLName: xml.Name{Space: "jxta", Local: "PA"},
		PID: "pABb<>\"'\U0001F642", Name: "b", Rank: -4}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, %v; want %+v", got, err, want)
	}
}

// TestAdvReaderNestingBound: unknown elements are skipped without
// recursion down to maxAdvDepth levels; one more, or ten thousand, is
// an error.
func TestAdvReaderNestingBound(t *testing.T) {
	EnsureBuiltinAdvTypes()
	nested := func(levels int) []byte {
		return []byte(`<PA xmlns="jxta">` + strings.Repeat("<X>", levels-1) + "x" +
			strings.Repeat("</X>", levels-1) + `<PID>p</PID></PA>`)
	}
	if adv, err := ParseAdvertisement(nested(maxAdvDepth)); err != nil || adv.AdvID() != "p" {
		t.Errorf("%d levels: %v, %v", maxAdvDepth, adv, err)
	}
	for _, levels := range []int{maxAdvDepth + 1, 10000} {
		if _, err := ParseAdvertisement(nested(levels)); err == nil {
			t.Errorf("%d levels accepted", levels)
		}
	}
}
