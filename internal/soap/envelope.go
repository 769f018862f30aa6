// Package soap implements the SOAP 1.1 messaging layer Whisper fronts
// its Web services with: envelope encoding/decoding, <soap:Fault>
// generation and detection (the only failure-handling mechanism plain
// Web services have, per the paper's introduction), and an HTTP
// binding with client and server sides.
package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
)

// NS is the SOAP 1.1 envelope namespace.
const NS = "http://schemas.xmlsoap.org/soap/envelope/"

// Standard SOAP 1.1 fault codes.
const (
	FaultCodeServer          = "soap:Server"
	FaultCodeClient          = "soap:Client"
	FaultCodeVersionMismatch = "soap:VersionMismatch"
	FaultCodeMustUnderstand  = "soap:MustUnderstand"
)

// Fault is a SOAP 1.1 fault. It implements error so transport layers
// can return it directly.
type Fault struct {
	XMLName xml.Name `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
	// Code is the faultcode (e.g. soap:Server for server-side errors).
	Code string `xml:"faultcode"`
	// Reason is the human-readable faultstring.
	Reason string `xml:"faultstring"`
	// Actor optionally names the failing node.
	Actor string `xml:"faultactor,omitempty"`
	// Detail carries application-specific error XML or text.
	Detail string `xml:"detail,omitempty"`
}

var _ error = (*Fault)(nil)

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.Reason)
}

// ServerFault builds a soap:Server fault from an error.
func ServerFault(err error) *Fault {
	return &Fault{Code: FaultCodeServer, Reason: err.Error()}
}

// ClientFault builds a soap:Client fault with the given reason.
func ClientFault(reason string) *Fault {
	return &Fault{Code: FaultCodeClient, Reason: reason}
}

// Envelope is the parsed form of a SOAP message: either a payload
// (raw body XML) or a fault, plus any header blocks.
type Envelope struct {
	// BodyXML is the raw inner XML of the soap:Body (nil for faults).
	BodyXML []byte
	// BodyRoot is the qualified root element of the body payload, used
	// to dispatch operations ("" for faults or empty bodies).
	BodyRoot xml.Name
	// Fault is non-nil if the body carries a soap:Fault.
	Fault *Fault
	// Headers are the soap:Header blocks, in document order.
	Headers []HeaderBlock
}

// Encode wraps the XML-marshalable payload in a SOAP envelope.
func Encode(payload any) ([]byte, error) { //lint:hotpath
	body, err := xml.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("soap: marshal payload: %w", err)
	}
	return wrap(body), nil
}

// EncodeRaw wraps pre-marshaled body XML in a SOAP envelope.
func EncodeRaw(bodyXML []byte) []byte { return wrap(bodyXML) } //lint:hotpath

// EncodeFault wraps a fault in a SOAP envelope.
func EncodeFault(f *Fault) ([]byte, error) {
	return build(func(b *bytes.Buffer) {
		b.WriteString(xml.Header)
		b.WriteString(`<soap:Envelope xmlns:soap="` + NS + `"><soap:Body>`)
		b.WriteString(`<soap:Fault><faultcode>`)
		_ = xml.EscapeText(b, []byte(f.Code))
		b.WriteString(`</faultcode><faultstring>`)
		_ = xml.EscapeText(b, []byte(f.Reason))
		b.WriteString(`</faultstring>`)
		if f.Actor != "" {
			b.WriteString(`<faultactor>`)
			_ = xml.EscapeText(b, []byte(f.Actor))
			b.WriteString(`</faultactor>`)
		}
		if f.Detail != "" {
			b.WriteString(`<detail>`)
			_ = xml.EscapeText(b, []byte(f.Detail))
			b.WriteString(`</detail>`)
		}
		b.WriteString(`</soap:Fault>`)
		b.WriteString(`</soap:Body></soap:Envelope>`)
	}), nil
}

func wrap(body []byte) []byte { //lint:hotpath
	return build(func(b *bytes.Buffer) {
		b.WriteString(xml.Header)
		b.WriteString(`<soap:Envelope xmlns:soap="` + NS + `"><soap:Body>`)
		b.Write(body)
		b.WriteString(`</soap:Body></soap:Envelope>`)
	})
}

// rawEnvelope mirrors the wire format for decoding.
type rawEnvelope struct {
	XMLName xml.Name   `xml:"http://schemas.xmlsoap.org/soap/envelope/ Envelope"`
	Header  *rawHeader `xml:"http://schemas.xmlsoap.org/soap/envelope/ Header"`
	Body    rawBody    `xml:"http://schemas.xmlsoap.org/soap/envelope/ Body"`
}

type rawHeader struct {
	Content []byte `xml:",innerxml"`
}

type rawBody struct {
	Content []byte `xml:",innerxml"`
}

// Decode parses a SOAP envelope. Faults are detected and returned in
// Envelope.Fault; other payloads are available raw in BodyXML for a
// second-stage DecodeBody.
func Decode(data []byte) (*Envelope, error) { //lint:hotpath
	var raw rawEnvelope
	if err := xml.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("soap: decode envelope: %w", err)
	}
	env := &Envelope{BodyXML: bytes.TrimSpace(raw.Body.Content)}
	if raw.Header != nil {
		blocks, err := parseHeaderBlocks(raw.Header.Content)
		if err != nil {
			return nil, fmt.Errorf("soap: decode header: %w", err)
		}
		env.Headers = blocks
	}
	if len(env.BodyXML) == 0 {
		return env, nil
	}
	root, err := bodyRoot(env.BodyXML)
	if err != nil {
		return nil, fmt.Errorf("soap: inspect body: %w", err)
	}
	env.BodyRoot = root
	if root.Local == "Fault" && (root.Space == NS || root.Space == "soap" || root.Space == "") {
		var f Fault
		// The serialized fault may use the soap prefix without a
		// namespace declaration inside the fragment; re-wrap it with
		// the declaration so the decoder resolves it.
		frag := append([]byte(`<wrapper xmlns:soap="`+NS+`">`), env.BodyXML...)
		frag = append(frag, []byte(`</wrapper>`)...)
		var wrapper struct {
			Fault Fault `xml:"http://schemas.xmlsoap.org/soap/envelope/ Fault"`
		}
		if err := xml.Unmarshal(frag, &wrapper); err != nil {
			return nil, fmt.Errorf("soap: decode fault: %w", err)
		}
		f = wrapper.Fault
		env.Fault = &f
		env.BodyXML = nil
	}
	return env, nil
}

// DecodeBody unmarshals the envelope's body payload into v.
func (e *Envelope) DecodeBody(v any) error {
	if e.Fault != nil {
		return e.Fault
	}
	if len(e.BodyXML) == 0 {
		return fmt.Errorf("soap: empty body")
	}
	if err := xml.Unmarshal(e.BodyXML, v); err != nil {
		return fmt.Errorf("soap: decode body: %w", err)
	}
	return nil
}

// bodyRoot returns the name of the first element in the body fragment.
func bodyRoot(frag []byte) (xml.Name, error) {
	dec := xml.NewDecoder(bytes.NewReader(frag))
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.Name{}, err
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se.Name, nil
		}
	}
}
