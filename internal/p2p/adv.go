package p2p

import (
	"encoding/xml"
	"fmt"
	"sync"
	"time"
)

// Advertisement is the JXTA metadata document describing a network
// resource (peer, peer group, pipe, service). Advertisements serialize
// to XML and are indexed by the discovery service on their Attributes.
//
// New advertisement types (such as Whisper's semantic advertisement)
// register a factory with RegisterAdvType; Parse then round-trips them.
type Advertisement interface {
	// AdvType is the XML document type, e.g. "jxta:PGA".
	AdvType() string
	// AdvID uniquely identifies the advertised resource.
	AdvID() ID
	// Attributes returns the flat searchable index of the
	// advertisement, mirroring JXTA's attribute/value discovery API.
	Attributes() map[string]string
	// MarshalAdv serializes the advertisement to XML.
	MarshalAdv() ([]byte, error)
	// UnmarshalAdv parses the XML produced by MarshalAdv: DecodeAdv.
	UnmarshalAdv(data []byte) error
	// ReadAdv reads the children of the document's root with r, one
	// r.Next(1) per element (see AdvReader).
	ReadAdv(r *AdvReader) error
}

// DefaultLifetime is the default advertisement lifetime in the local
// cache, mirroring JXTA's default expiration.
const DefaultLifetime = 2 * time.Hour

// --- registry --------------------------------------------------------

var (
	advRegistryMu sync.RWMutex
	advRegistry   = map[string]func() Advertisement{}
)

// RegisterAdvType registers a factory for an advertisement document
// type. It is safe to call from package init of extension packages;
// re-registration overwrites.
func RegisterAdvType(advType string, factory func() Advertisement) {
	advRegistryMu.Lock()
	defer advRegistryMu.Unlock()
	advRegistry[advType] = factory
}

// ParseAdvertisement reads the root element of the document once,
// looks up the factory registered for it and decodes the rest into the
// advertisement the factory makes.
func ParseAdvertisement(data []byte) (Advertisement, error) {
	r := &AdvReader{}
	var buf [64]byte
	key := r.root(data, buf[:0])
	if r.err != nil {
		return nil, fmt.Errorf("p2p: parse advertisement: %w", r.err)
	}
	advRegistryMu.RLock()
	factory, ok := advRegistry[string(key)]
	advRegistryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("p2p: unknown advertisement type %q", string(key))
	}
	adv := factory()
	if err := r.read(adv); err != nil {
		return nil, fmt.Errorf("p2p: decode %s: %w", adv.AdvType(), err)
	}
	return adv, nil
}

// --- concrete advertisements ----------------------------------------

// Advertisement document types.
const (
	PeerAdvType      = "jxta:PA"
	PeerGroupAdvType = "jxta:PGA"
	PipeAdvType      = "jxta:PipeAdv"
	ServiceAdvType   = "jxta:SvcAdv"
)

// PeerAdvertisement describes a peer and its transport address. A
// member of a peer group names it in GID: the document is then the
// peer's membership, and the group's member list is the index's
// (jxta:PA, GID, gid) posting. Rank carries the peer's Bully election
// priority so group members learn each other's ranks from the member
// list; Term is the highest election term the peer had seen when it
// published, so a joining member learns that too.
type PeerAdvertisement struct {
	XMLName xml.Name `xml:"jxta PA"`
	PID     ID       `xml:"PID"`
	GID     ID       `xml:"GID,omitempty"`
	Name    string   `xml:"Name"`
	Addr    string   `xml:"Addr"`
	Rank    int64    `xml:"Rank,omitempty"`
	Term    uint64   `xml:"Term,omitempty"`
	Desc    string   `xml:"Desc,omitempty"`
}

var _ Advertisement = (*PeerAdvertisement)(nil)

// AdvType implements Advertisement.
func (a *PeerAdvertisement) AdvType() string { return PeerAdvType }

// AdvID implements Advertisement.
func (a *PeerAdvertisement) AdvID() ID { return a.PID }

// Attributes implements Advertisement.
func (a *PeerAdvertisement) Attributes() map[string]string {
	return map[string]string{"Name": a.Name, "PID": string(a.PID), "GID": string(a.GID), "Addr": a.Addr}
}

// MarshalAdv implements Advertisement.
func (a *PeerAdvertisement) MarshalAdv() ([]byte, error) { return marshalAdv(a) }

// UnmarshalAdv implements Advertisement.
func (a *PeerAdvertisement) UnmarshalAdv(data []byte) error { return DecodeAdv(data, a) }

// ReadAdv implements Advertisement.
func (a *PeerAdvertisement) ReadAdv(r *AdvReader) error {
	a.XMLName = xml.Name{Space: "jxta", Local: "PA"}
	for r.Next(1) {
		switch string(r.Name()) {
		case "PID":
			a.PID = ID(r.Text())
		case "GID":
			a.GID = ID(r.Text())
		case "Name":
			a.Name = r.Text()
		case "Addr":
			a.Addr = r.Text()
		case "Rank":
			a.Rank = r.Int()
		case "Term":
			a.Term = r.Uint()
		case "Desc":
			a.Desc = r.Text()
		}
	}
	return r.Err()
}

// PeerGroupAdvertisement describes a peer group.
type PeerGroupAdvertisement struct {
	XMLName xml.Name `xml:"jxta PGA"`
	GID     ID       `xml:"GID"`
	Name    string   `xml:"Name"`
	Desc    string   `xml:"Desc,omitempty"`
}

var _ Advertisement = (*PeerGroupAdvertisement)(nil)

// AdvType implements Advertisement.
func (a *PeerGroupAdvertisement) AdvType() string { return PeerGroupAdvType }

// AdvID implements Advertisement.
func (a *PeerGroupAdvertisement) AdvID() ID { return a.GID }

// Attributes implements Advertisement.
func (a *PeerGroupAdvertisement) Attributes() map[string]string {
	return map[string]string{"Name": a.Name, "GID": string(a.GID)}
}

// MarshalAdv implements Advertisement.
func (a *PeerGroupAdvertisement) MarshalAdv() ([]byte, error) { return marshalAdv(a) }

// UnmarshalAdv implements Advertisement.
func (a *PeerGroupAdvertisement) UnmarshalAdv(data []byte) error { return DecodeAdv(data, a) }

// ReadAdv implements Advertisement.
func (a *PeerGroupAdvertisement) ReadAdv(r *AdvReader) error {
	a.XMLName = xml.Name{Space: "jxta", Local: "PGA"}
	for r.Next(1) {
		switch string(r.Name()) {
		case "GID":
			a.GID = ID(r.Text())
		case "Name":
			a.Name = r.Text()
		case "Desc":
			a.Desc = r.Text()
		}
	}
	return r.Err()
}

// PipeKind enumerates pipe delivery semantics.
type PipeKind string

// Pipe kinds.
const (
	UnicastPipe   PipeKind = "JxtaUnicast"
	PropagatePipe PipeKind = "JxtaPropagate"
)

// PipeAdvertisement describes a communication pipe bound at a peer.
type PipeAdvertisement struct {
	XMLName xml.Name `xml:"jxta PipeAdv"`
	PipeID  ID       `xml:"Id"`
	Kind    PipeKind `xml:"Type"`
	Name    string   `xml:"Name"`
	// Addr is the transport address where the input end is bound.
	Addr string `xml:"Addr"`
}

var _ Advertisement = (*PipeAdvertisement)(nil)

// AdvType implements Advertisement.
func (a *PipeAdvertisement) AdvType() string { return PipeAdvType }

// AdvID implements Advertisement.
func (a *PipeAdvertisement) AdvID() ID { return a.PipeID }

// Attributes implements Advertisement.
func (a *PipeAdvertisement) Attributes() map[string]string {
	return map[string]string{"Name": a.Name, "Id": string(a.PipeID), "Type": string(a.Kind)}
}

// MarshalAdv implements Advertisement.
func (a *PipeAdvertisement) MarshalAdv() ([]byte, error) { return marshalAdv(a) }

// UnmarshalAdv implements Advertisement.
func (a *PipeAdvertisement) UnmarshalAdv(data []byte) error { return DecodeAdv(data, a) }

// ReadAdv implements Advertisement.
func (a *PipeAdvertisement) ReadAdv(r *AdvReader) error {
	a.XMLName = xml.Name{Space: "jxta", Local: "PipeAdv"}
	for r.Next(1) {
		switch string(r.Name()) {
		case "Id":
			a.PipeID = ID(r.Text())
		case "Type":
			a.Kind = PipeKind(r.Text())
		case "Name":
			a.Name = r.Text()
		case "Addr":
			a.Addr = r.Text()
		}
	}
	return r.Err()
}

// ServiceAdvertisement describes a plain (syntactic) service offered
// by a peer: name, operation signature strings, and the pipe to call.
type ServiceAdvertisement struct {
	XMLName xml.Name `xml:"jxta SvcAdv"`
	SvcID   ID       `xml:"SvcID"`
	Name    string   `xml:"Name"`
	// Operation is the syntactic operation name.
	Operation string `xml:"Operation"`
	// PipeID and Addr locate the service's input pipe.
	PipeID ID     `xml:"PipeID"`
	Addr   string `xml:"Addr"`
	Desc   string `xml:"Desc,omitempty"`
}

var _ Advertisement = (*ServiceAdvertisement)(nil)

// AdvType implements Advertisement.
func (a *ServiceAdvertisement) AdvType() string { return ServiceAdvType }

// AdvID implements Advertisement.
func (a *ServiceAdvertisement) AdvID() ID { return a.SvcID }

// Attributes implements Advertisement.
func (a *ServiceAdvertisement) Attributes() map[string]string {
	return map[string]string{
		"Name":      a.Name,
		"SvcID":     string(a.SvcID),
		"Operation": a.Operation,
	}
}

// MarshalAdv implements Advertisement.
func (a *ServiceAdvertisement) MarshalAdv() ([]byte, error) { return marshalAdv(a) }

// UnmarshalAdv implements Advertisement.
func (a *ServiceAdvertisement) UnmarshalAdv(data []byte) error { return DecodeAdv(data, a) }

// ReadAdv implements Advertisement.
func (a *ServiceAdvertisement) ReadAdv(r *AdvReader) error {
	a.XMLName = xml.Name{Space: "jxta", Local: "SvcAdv"}
	for r.Next(1) {
		switch string(r.Name()) {
		case "SvcID":
			a.SvcID = ID(r.Text())
		case "Name":
			a.Name = r.Text()
		case "Operation":
			a.Operation = r.Text()
		case "PipeID":
			a.PipeID = ID(r.Text())
		case "Addr":
			a.Addr = r.Text()
		case "Desc":
			a.Desc = r.Text()
		}
	}
	return r.Err()
}

// registerBuiltinAdvTypes wires the concrete types into the registry.
func registerBuiltinAdvTypes() {
	RegisterAdvType(PeerAdvType, func() Advertisement { return &PeerAdvertisement{} })
	RegisterAdvType(PeerGroupAdvType, func() Advertisement { return &PeerGroupAdvertisement{} })
	RegisterAdvType(PipeAdvType, func() Advertisement { return &PipeAdvertisement{} })
	RegisterAdvType(ServiceAdvType, func() Advertisement { return &ServiceAdvertisement{} })
}

var registerBuiltinOnce sync.Once

// EnsureBuiltinAdvTypes registers the built-in advertisement types.
// Every entry point that parses advertisements calls it; it is
// idempotent and cheap.
func EnsureBuiltinAdvTypes() {
	registerBuiltinOnce.Do(registerBuiltinAdvTypes)
}
