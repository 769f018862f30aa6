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
	// UnmarshalAdv parses the XML produced by MarshalAdv.
	UnmarshalAdv(data []byte) error
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

// ParseAdvertisement sniffs the root element of the XML document and
// decodes it with the registered factory.
func ParseAdvertisement(data []byte) (Advertisement, error) {
	root, err := rootElement(data)
	if err != nil {
		return nil, fmt.Errorf("p2p: parse advertisement: %w", err)
	}
	advRegistryMu.RLock()
	factory, ok := advRegistry[root]
	advRegistryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("p2p: unknown advertisement type %q", root)
	}
	adv := factory()
	if err := adv.UnmarshalAdv(data); err != nil {
		return nil, fmt.Errorf("p2p: decode %s: %w", root, err)
	}
	return adv, nil
}

func rootElement(data []byte) (string, error) {
	dec := xml.NewDecoder(bytesReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return "", err
		}
		if se, ok := tok.(xml.StartElement); ok {
			if se.Name.Space != "" {
				return se.Name.Space + ":" + se.Name.Local, nil
			}
			return se.Name.Local, nil
		}
	}
}

// --- concrete advertisements ----------------------------------------

// Advertisement document types.
const (
	PeerAdvType      = "jxta:PA"
	PeerGroupAdvType = "jxta:PGA"
	PipeAdvType      = "jxta:PipeAdv"
	ServiceAdvType   = "jxta:SvcAdv"
)

// PeerAdvertisement describes a peer and its transport address. Rank
// carries the peer's Bully election priority so group members learn
// each other's ranks from the rendezvous membership view; Term is the
// highest election term the peer had seen when it published, so a
// joining member learns that too.
type PeerAdvertisement struct {
	XMLName xml.Name `xml:"jxta PA"`
	PID     ID       `xml:"PID"`
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
	return map[string]string{"Name": a.Name, "PID": string(a.PID), "Addr": a.Addr}
}

// MarshalAdv implements Advertisement.
func (a *PeerAdvertisement) MarshalAdv() ([]byte, error) { return marshalAdv(a) }

// UnmarshalAdv implements Advertisement.
func (a *PeerAdvertisement) UnmarshalAdv(data []byte) error { return unmarshalAdv(data, a) }

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
func (a *PeerGroupAdvertisement) UnmarshalAdv(data []byte) error { return unmarshalAdv(data, a) }

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
func (a *PipeAdvertisement) UnmarshalAdv(data []byte) error { return unmarshalAdv(data, a) }

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
func (a *ServiceAdvertisement) UnmarshalAdv(data []byte) error { return unmarshalAdv(data, a) }

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
