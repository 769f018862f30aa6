// Package bpeer implements Whisper's b-peers and b-peer groups (paper
// §4): replicated service peers organized into logical semantic
// groups, advertised with semantic advertisements (an extension of the
// JXTA advertisement, §4.3), coordinated through the Bully algorithm,
// and serving Web-service requests forwarded by SWS-proxies.
package bpeer

import (
	"encoding/xml"
	"strings"
	"sync"

	"whisper/internal/ontology"
	"whisper/internal/p2p"
	"whisper/internal/qos"
)

// SemanticAdvType is the document type of Whisper's semantic
// advertisement.
const SemanticAdvType = "whisper:SemAdv"

// SemanticAdvertisement is the "new type of advertisement that uses
// semantic information to describe our semantic peer groups" (§4.3):
// it extends the peer-group advertisement with the group's functional
// concept (action), data concepts (inputs/outputs) and an aggregate
// QoS profile.
type SemanticAdvertisement struct {
	XMLName xml.Name `xml:"whisper SemAdv"`
	// GID identifies the advertised b-peer group.
	GID p2p.ID `xml:"GID"`
	// Name is the group's human-readable name.
	Name string `xml:"Name"`
	// Action is the functional-semantics concept URI (§2.3).
	Action string `xml:"Action"`
	// Inputs and Outputs are data-semantics concept URIs (§2.2).
	Inputs  []string `xml:"Input"`
	Outputs []string `xml:"Output"`
	// QoS is the group's advertised quality profile (§2.4).
	QoS qos.Profile `xml:"QoS"`
	// ReadOps lists the group's read-only operations: ops a proxy may
	// send to ANY replica (marked read-only) instead of the
	// coordinator, served behind the read-index barrier.
	ReadOps []string `xml:"ReadOp,omitempty"`
	// Desc is optional free text.
	Desc string `xml:"Desc,omitempty"`
}

var _ p2p.Advertisement = (*SemanticAdvertisement)(nil)

// AdvType implements p2p.Advertisement.
func (a *SemanticAdvertisement) AdvType() string { return SemanticAdvType }

// AdvID implements p2p.Advertisement.
func (a *SemanticAdvertisement) AdvID() p2p.ID { return a.GID }

// Attributes implements p2p.Advertisement. The "action" attribute is
// the index the SWS-proxy's discovery query uses
// (getLocalAdvertisements(ADV, "action", sws.get_sem_action())).
func (a *SemanticAdvertisement) Attributes() map[string]string {
	return map[string]string{
		"Name":   a.Name,
		"GID":    string(a.GID),
		"action": a.Action,
		"input":  strings.Join(a.Inputs, " "),
		"output": strings.Join(a.Outputs, " "),
	}
}

// MarshalAdv implements p2p.Advertisement.
func (a *SemanticAdvertisement) MarshalAdv() ([]byte, error) {
	body, err := xml.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(xml.Header)+len(body)+1)
	out = append(out, xml.Header...)
	out = append(out, body...)
	out = append(out, '\n')
	return out, nil
}

// UnmarshalAdv implements p2p.Advertisement.
func (a *SemanticAdvertisement) UnmarshalAdv(data []byte) error { return p2p.DecodeAdv(data, a) }

// ReadAdv implements p2p.Advertisement.
func (a *SemanticAdvertisement) ReadAdv(r *p2p.AdvReader) error {
	a.XMLName = xml.Name{Space: "whisper", Local: "SemAdv"}
	for r.Next(1) {
		switch string(r.Name()) {
		case "GID":
			a.GID = p2p.ID(r.Text())
		case "Name":
			a.Name = r.Text()
		case "Action":
			a.Action = r.Text()
		case "Input":
			a.Inputs = append(a.Inputs, r.Text())
		case "Output":
			a.Outputs = append(a.Outputs, r.Text())
		case "QoS":
			readQoS(r, &a.QoS)
		case "ReadOp":
			a.ReadOps = append(a.ReadOps, r.Text())
		case "Desc":
			a.Desc = r.Text()
		}
	}
	return r.Err()
}

// readQoS reads the children of a <QoS> element.
func readQoS(r *p2p.AdvReader, p *qos.Profile) {
	for r.Next(2) {
		switch string(r.Name()) {
		case "LatencyMillis":
			p.LatencyMillis = r.Float()
		case "CostPerCall":
			p.CostPerCall = r.Float()
		case "Reliability":
			p.Reliability = r.Float()
		case "Availability":
			p.Availability = r.Float()
		}
	}
}

// IsReadOp reports whether op is advertised read-only (servable by any
// replica behind the read-index barrier).
func (a *SemanticAdvertisement) IsReadOp(op string) bool {
	for _, ro := range a.ReadOps {
		if ro == op {
			return true
		}
	}
	return false
}

// Signature returns the advertisement's semantic signature.
func (a *SemanticAdvertisement) Signature() ontology.Signature {
	return ontology.Signature{
		Action:  a.Action,
		Inputs:  append([]string(nil), a.Inputs...),
		Outputs: append([]string(nil), a.Outputs...),
	}
}

// NewSemanticAdvertisement builds a semantic advertisement from a
// signature.
func NewSemanticAdvertisement(gid p2p.ID, name string, sig ontology.Signature, profile qos.Profile) *SemanticAdvertisement {
	return &SemanticAdvertisement{
		GID:     gid,
		Name:    name,
		Action:  sig.Action,
		Inputs:  append([]string(nil), sig.Inputs...),
		Outputs: append([]string(nil), sig.Outputs...),
		QoS:     profile,
	}
}

var registerOnce sync.Once

// EnsureAdvTypes registers Whisper's advertisement extensions with the
// p2p registry (idempotent).
func EnsureAdvTypes() {
	p2p.EnsureBuiltinAdvTypes()
	registerOnce.Do(func() {
		p2p.RegisterAdvType(SemanticAdvType, func() p2p.Advertisement { return &SemanticAdvertisement{} })
	})
}
