package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
)

// HeaderBlock is one child element of soap:Header.
type HeaderBlock struct {
	// Name is the block's qualified element name.
	Name xml.Name
	// MustUnderstand mirrors the soap:mustUnderstand="1" attribute.
	MustUnderstand bool
	// XML is the raw block, suitable for re-emission.
	XML []byte
}

// EncodeWithHeaders wraps the payload in an envelope carrying the
// given raw header blocks.
func EncodeWithHeaders(payload any, headerBlocks ...[]byte) ([]byte, error) {
	body, err := xml.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("soap: marshal payload: %w", err)
	}
	return EncodeRawWithHeaders(body, headerBlocks...), nil
}

// EncodeRawWithHeaders wraps pre-marshaled body XML in an envelope
// carrying the given raw header blocks (nil blocks are skipped).
func EncodeRawWithHeaders(bodyXML []byte, headerBlocks ...[]byte) []byte {
	return build(func(b *bytes.Buffer) {
		b.WriteString(xml.Header)
		b.WriteString(`<soap:Envelope xmlns:soap="` + NS + `">`)
		hasBlocks := false
		for _, h := range headerBlocks {
			if len(h) > 0 {
				if !hasBlocks {
					b.WriteString(`<soap:Header>`)
					hasBlocks = true
				}
				b.Write(h)
			}
		}
		if hasBlocks {
			b.WriteString(`</soap:Header>`)
		}
		b.WriteString(`<soap:Body>`)
		b.Write(bodyXML)
		b.WriteString(`</soap:Body></soap:Envelope>`)
	})
}

// MustUnderstandBlock builds a raw header block with
// soap:mustUnderstand="1".
func MustUnderstandBlock(localName, content string) []byte {
	return []byte(`<` + localName + ` soap:mustUnderstand="1">` + content + `</` + localName + `>`)
}

// parseHeaderBlocks extracts the top-level children of a soap:Header
// fragment. The fragment may reference the "soap" prefix without
// redeclaring it, so it is re-wrapped with the declaration first.
func parseHeaderBlocks(frag []byte) ([]HeaderBlock, error) {
	if len(bytes.TrimSpace(frag)) == 0 {
		return nil, nil
	}
	wrapped := append([]byte(`<w xmlns:soap="`+NS+`">`), frag...)
	wrapped = append(wrapped, []byte(`</w>`)...)
	dec := xml.NewDecoder(bytes.NewReader(wrapped))
	blocks := make([]HeaderBlock, 0, 4) // envelopes carry a handful of header blocks at most
	depth := 0
	var cur *HeaderBlock
	var raw bytes.Buffer
	enc := xml.NewEncoder(&raw)
	for {
		tok, err := dec.Token()
		if err != nil {
			break
		}
		switch el := tok.(type) {
		case xml.StartElement:
			depth++
			if depth == 2 { // direct child of the wrapper
				cur = &HeaderBlock{Name: el.Name}
				for _, a := range el.Attr {
					if a.Name.Local == "mustUnderstand" &&
						(a.Name.Space == NS || a.Name.Space == "" || a.Name.Space == "soap") &&
						(a.Value == "1" || a.Value == "true") {
						cur.MustUnderstand = true
					}
				}
				raw.Reset()
			}
			if cur != nil {
				if err := enc.EncodeToken(sanitize(el)); err != nil {
					return nil, fmt.Errorf("soap: header block: %w", err)
				}
			}
		case xml.EndElement:
			if cur != nil {
				if err := enc.EncodeToken(xml.EndElement{Name: xml.Name{Local: el.Name.Local}}); err != nil {
					return nil, fmt.Errorf("soap: header block: %w", err)
				}
			}
			if depth == 2 && cur != nil {
				if err := enc.Flush(); err != nil {
					return nil, fmt.Errorf("soap: header block: %w", err)
				}
				cur.XML = append([]byte(nil), raw.Bytes()...)
				blocks = append(blocks, *cur)
				cur = nil
			}
			depth--
		default:
			if cur != nil {
				if err := enc.EncodeToken(tok); err != nil {
					return nil, fmt.Errorf("soap: header block: %w", err)
				}
			}
		}
	}
	return blocks, nil
}

// sanitize strips namespace attributes so re-encoded blocks stay
// self-contained.
func sanitize(el xml.StartElement) xml.StartElement {
	out := xml.StartElement{Name: xml.Name{Local: el.Name.Local}}
	for _, a := range el.Attr {
		if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
			continue
		}
		out.Attr = append(out.Attr, xml.Attr{Name: xml.Name{Local: a.Name.Local}, Value: a.Value})
	}
	return out
}
