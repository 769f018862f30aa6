package p2p

import (
	"bytes"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"whisper/internal/wire"
)

// marshalAdv serializes an advertisement struct with an XML header.
func marshalAdv(v any) ([]byte, error) { //lint:hotpath
	body, err := xml.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(xml.Header)+len(body)+1)
	out = append(out, xml.Header...)
	out = append(out, body...)
	out = append(out, '\n')
	return out, nil
}

// Advertisement documents decode in one strict pass over their bytes,
// with no reflection and no fallback (DESIGN.md §8 "Decoding a
// document"). Whatever the reader accepts, encoding/xml decodes to the
// same value (FuzzAdvertisementAgreesWithXML).

const advHeader = `<?xml version="1.0" encoding="UTF-8"?>`

// maxAdvDepth bounds element nesting, root included.
const maxAdvDepth = 16

// An AdvReader walks one advertisement document. ReadAdv calls Next(1)
// for each child of the root and reads it with Text, Int, Uint or Float,
// or its children with Next(2); what it leaves unread is skipped. The
// first error stops the reader and is returned by Err.
type AdvReader struct {
	data       []byte
	pos, depth int
	open       [maxAdvDepth]int // name offset of each open element, root first
	name       []byte           // the element Next moved to
	err        error
}

// DecodeAdv reads data, a document of adv's own type, into adv.
func DecodeAdv(data []byte, adv Advertisement) error {
	r := &AdvReader{}
	var buf [64]byte
	if key := r.root(data, buf[:0]); r.err == nil && string(key) != adv.AdvType() {
		return fmt.Errorf("p2p: document is %s, want %s", key, adv.AdvType())
	}
	return r.read(adv)
}

// root reads the header and the root's start tag, <local xmlns="space">,
// and appends "space:local" to key.
func (r *AdvReader) root(data, key []byte) []byte {
	r.data = data
	if hasPrefix(data, advHeader) {
		r.pos = len(advHeader)
	}
	raw, _ := r.charData()
	start := r.pos + 1
	end := nameEnd(data, start)
	const attr = ` xmlns="`
	space := data[min(end+len(attr), len(data)):]
	q := bytes.IndexByte(space, '"')
	if !blank(raw) || end == start || !hasPrefix(data[end:], attr) || q < 0 || !hasPrefix(space[q:], `">`) {
		r.fail(`no <name xmlns="…"> root`)
		return key
	}
	r.open[0], r.depth, r.pos = start, 1, len(data)-len(space)+q+2
	return append(append(append(key, space[:q]...), ':'), data[start:end]...)
}

// read decodes the root's children into adv; only white space may follow.
func (r *AdvReader) read(adv Advertisement) error {
	if r.err == nil {
		r.err = adv.ReadAdv(r)
	}
	for r.Next(1) {
	}
	if raw, _ := r.charData(); r.err == nil && (!blank(raw) || r.pos != len(r.data)) {
		r.fail("bytes after the root")
	}
	return r.err
}

// Next moves to the next child of the open element at depth level (the
// root is level 1), skipping what is left of the previous one. It
// reports false at that element's end tag or on an error.
func (r *AdvReader) Next(level int) bool { //lint:hotpath
	for r.err == nil && r.depth >= level {
		if raw, escaped := r.charData(); r.depth == level && (escaped || !blank(raw)) {
			return r.fail("text between elements")
		}
		if r.tag() && r.depth == level+1 {
			return true
		}
	}
	return false
}

// Name is the name of the element Next moved to; it aliases the document.
func (r *AdvReader) Name() []byte { return r.name }

// Err is the first error the reader met.
func (r *AdvReader) Err() error { return r.err }

// Text reads the element Next moved to, which must hold text only.
func (r *AdvReader) Text() string { //lint:hotpath
	raw, escaped := r.leaf()
	if !escaped {
		return string(raw)
	}
	var b strings.Builder
	b.Grow(len(raw)) // a reference is longer than what it stands for
	for i := bytes.IndexByte(raw, '&'); i >= 0; i = bytes.IndexByte(raw, '&') {
		c, n := charRef(raw[i:])
		b.Write(raw[:i])
		b.WriteRune(c)
		raw = raw[i+n:]
	}
	b.Write(raw)
	return b.String()
}

// Int, Uint and Float read the element Next moved to as encoding/xml
// reads a number: empty is zero and surrounding white space is trimmed.
// A reference is an error, and so is NaN: it is unequal to itself, so
// no round trip of it could be checked.
func (r *AdvReader) Int() int64 { //lint:hotpath
	v, err := strconv.ParseInt(string(r.number()), 10, 64)
	r.check(err == nil)
	return v
}

// Uint: see Int.
func (r *AdvReader) Uint() uint64 { //lint:hotpath
	v, err := strconv.ParseUint(string(r.number()), 10, 64)
	r.check(err == nil)
	return v
}

// Float: see Int.
func (r *AdvReader) Float() float64 { //lint:hotpath
	v, err := strconv.ParseFloat(string(r.number()), 64)
	r.check(err == nil && v == v)
	return v
}

func (r *AdvReader) number() []byte { //lint:hotpath
	raw, escaped := r.leaf()
	r.check(!escaped)
	if len(raw) == 0 {
		return []byte("0")
	}
	return bytes.TrimSpace(raw)
}

func (r *AdvReader) check(ok bool) {
	if !ok {
		r.fail("not a number")
	}
}

// leaf reads the character data and end tag of the element Next moved to.
func (r *AdvReader) leaf() ([]byte, bool) { //lint:hotpath
	depth := r.depth
	raw, escaped := r.charData()
	if r.tag() || r.depth != depth-1 {
		r.fail("element in a text field")
		return nil, false
	}
	return raw, escaped
}

// charData checks the character data up to the next '<' and returns it
// raw, reporting whether it holds a reference.
func (r *AdvReader) charData() (raw []byte, escaped bool) { //lint:hotpath
	data, i := r.data, r.pos
	for i < len(data) && data[i] != '<' {
		c, n := rune(data[i]), 1
		switch {
		case c == '&':
			c, n = charRef(data[i:])
			escaped = true
		case c >= utf8.RuneSelf:
			if c, n = utf8.DecodeRune(data[i:]); c == utf8.RuneError && n == 1 {
				n = 0
			}
		case c == '>' || c == '\r':
			n = 0
		}
		if n == 0 || !isXMLChar(c) {
			r.pos = i
			r.fail("bad character data")
			return nil, false
		}
		i += n
	}
	raw, r.pos = data[r.pos:i], i
	return raw, escaped
}

// tag reads the tag at r.pos: <name> opens an element, </name> closes
// the innermost open one, whose name it must carry. It reports whether
// it opened one.
func (r *AdvReader) tag() bool { //lint:hotpath
	closing := hasPrefix(r.data[r.pos:], "</")
	start := r.pos + 1
	if closing {
		start++
	}
	end := nameEnd(r.data, start)
	switch {
	case r.err != nil:
		return false
	case end == start || end >= len(r.data) || r.data[end] != '>':
		return r.fail("not a plain <name> or </name> tag")
	case closing:
		open := r.open[r.depth-1]
		if !bytes.Equal(r.data[start:end], r.data[open:nameEnd(r.data, open)]) {
			return r.fail("mismatched end tag")
		}
		r.depth--
	case r.depth == maxAdvDepth:
		return r.fail("elements nested too deep")
	default:
		r.open[r.depth], r.depth, r.name = start, r.depth+1, r.data[start:end]
	}
	r.pos = end + 1
	return !closing
}

func (r *AdvReader) fail(what string) bool {
	if r.err == nil {
		r.err = fmt.Errorf("p2p: advertisement document: %s at byte %d", what, r.pos)
	}
	return false
}

// blank reports whether b is white space of the kinds the encoder writes.
func blank(b []byte) bool { //lint:hotpath
	for _, c := range b {
		if c != ' ' && c != '\t' && c != '\n' {
			return false
		}
	}
	return true
}

// nameEnd returns where the element name starting at data[i] ends: i
// when none starts there. Names are ASCII, without a prefix.
func nameEnd(data []byte, i int) int { //lint:hotpath
	for j := i; j < len(data); j++ {
		if c := data[j]; !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' ||
			j > i && (c >= '0' && c <= '9' || c == '-' || c == '.')) {
			return j
		}
	}
	return max(i, len(data))
}

// charRef decodes the reference at the start of b, which begins with
// '&', and returns its character and length, or a length of 0 when it is
// neither a predefined entity nor a decimal or &#x reference.
func charRef(b []byte) (rune, int) { //lint:hotpath
	for i, entity := range [...]string{"&amp;", "&lt;", "&gt;", "&quot;", "&apos;"} {
		if hasPrefix(b, entity) {
			return rune("&<>\"'"[i]), len(entity)
		}
	}
	digits, base := b[min(2, len(b)):], 10
	if hasPrefix(digits, "x") {
		digits, base = digits[1:], 16
	}
	end := bytes.IndexByte(digits, ';')
	if !hasPrefix(b, "&#") || end < 0 {
		return 0, 0
	}
	c, err := strconv.ParseUint(string(digits[:end]), base, 32)
	if err != nil {
		return 0, 0
	}
	return rune(c), len(b) - len(digits) + end + 1
}

func hasPrefix(b []byte, prefix string) bool {
	return len(b) >= len(prefix) && string(b[:len(prefix)]) == prefix
}

// isXMLChar reports whether c is in XML's Char production.
func isXMLChar(c rune) bool {
	return c == '\t' || c == '\n' || c == '\r' || c >= 0x20 && c <= 0xD7FF ||
		c >= 0xE000 && c <= 0xFFFD || c >= 0x10000 && c <= utf8.MaxRune
}

// A document list is how a peer ships advertisement documents exactly as
// they were published: a uvarint document count, then per document a
// uvarint length and that many bytes (layout: DESIGN.md §8). It answers
// a discovery query and carries a rendezvous member list.

// encodeDocs frames docs.
func encodeDocs(docs [][]byte) []byte {
	size := binary.MaxVarintLen64
	for _, doc := range docs {
		size += binary.MaxVarintLen64 + len(doc)
	}
	out := wire.AppendUvarint(make([]byte, 0, size), uint64(len(docs)))
	for _, doc := range docs {
		out = wire.AppendBytes(out, doc)
	}
	return out
}

// decodeDocs splits a document list into its documents, which alias
// data. Malformed input is wire.ErrMalformed, never a panic.
func decodeDocs(data []byte) ([][]byte, error) {
	r := wire.NewReader(data)
	docs := make([][]byte, r.Count(1))
	for i := range docs {
		docs[i] = r.Bytes()
	}
	return docs, r.Done()
}
