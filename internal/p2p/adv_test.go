package p2p

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAdvertisementRoundTrips(t *testing.T) {
	EnsureBuiltinAdvTypes()
	advs := []Advertisement{
		&PeerAdvertisement{PID: "urn:jxta:peer-1", Name: "alpha", Addr: "a:1", Desc: "d"},
		&PeerGroupAdvertisement{GID: "urn:jxta:group-1", Name: "students", Desc: "grp"},
		&PipeAdvertisement{PipeID: "urn:jxta:pipe-1", Kind: UnicastPipe, Name: "svc", Addr: "a:1"},
		&ServiceAdvertisement{SvcID: "urn:jxta:id-1", Name: "StudentManagement",
			Operation: "StudentInformation", PipeID: "urn:jxta:pipe-1", Addr: "a:1"},
	}
	for _, adv := range advs {
		raw, err := adv.MarshalAdv()
		if err != nil {
			t.Fatalf("%s: marshal: %v", adv.AdvType(), err)
		}
		back, err := ParseAdvertisement(raw)
		if err != nil {
			t.Fatalf("%s: parse: %v\n%s", adv.AdvType(), err, raw)
		}
		if back.AdvType() != adv.AdvType() {
			t.Errorf("type: got %s, want %s", back.AdvType(), adv.AdvType())
		}
		if back.AdvID() != adv.AdvID() {
			t.Errorf("%s: id: got %s, want %s", adv.AdvType(), back.AdvID(), adv.AdvID())
		}
		for k, want := range adv.Attributes() {
			if got := back.Attributes()[k]; got != want {
				t.Errorf("%s: attr %s: got %q, want %q", adv.AdvType(), k, got, want)
			}
		}
	}
}

func TestParseAdvertisementUnknownType(t *testing.T) {
	EnsureBuiltinAdvTypes()
	if _, err := ParseAdvertisement([]byte(`<Mystery><X>1</X></Mystery>`)); err == nil {
		t.Error("expected error for unregistered advertisement type")
	}
}

func TestParseAdvertisementMalformed(t *testing.T) {
	EnsureBuiltinAdvTypes()
	if _, err := ParseAdvertisement([]byte(`not xml at all`)); err == nil {
		t.Error("expected error for malformed XML")
	}
}

func TestPeerAdvRoundTripProperty(t *testing.T) {
	EnsureBuiltinAdvTypes()
	prop := func(pid, name, addr string) bool {
		// Keep to XML's Char production minus the control characters:
		// encoding/xml writes any other rune (U+FFFE, U+FFFF, …) as
		// U+FFFD, which cannot round-trip.
		clean := func(s string) string {
			var b strings.Builder
			for _, r := range s {
				xmlChar := r >= 0x20 && r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000
				if xmlChar && r != '<' && r != '&' && r != '>' {
					b.WriteRune(r)
				}
			}
			return b.String()
		}
		adv := &PeerAdvertisement{PID: ID("urn:x-" + clean(pid)), Name: clean(name), Addr: clean(addr)}
		raw, err := adv.MarshalAdv()
		if err != nil {
			return false
		}
		back := &PeerAdvertisement{}
		if err := back.UnmarshalAdv(raw); err != nil {
			return false
		}
		return back.PID == adv.PID && back.Name == adv.Name && back.Addr == adv.Addr
	}
	if err := quick.Check(prop, &quick.Config{Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

func TestIDGenDeterministicWithSeed(t *testing.T) {
	g1, g2 := NewIDGen(7), NewIDGen(7)
	for i := 0; i < 10; i++ {
		a, b := g1.New(PeerIDKind), g2.New(PeerIDKind)
		if a != b {
			t.Fatalf("seeded generators diverged: %s vs %s", a, b)
		}
	}
}

func TestIDGenUnique(t *testing.T) {
	g := NewIDGen(0)
	seen := make(map[ID]bool)
	for i := 0; i < 1000; i++ {
		id := g.New(PipeIDKind)
		if seen[id] {
			t.Fatalf("duplicate id %s", id)
		}
		seen[id] = true
	}
}

func TestIDKindPrefixes(t *testing.T) {
	g := NewIDGen(1)
	tests := []struct {
		kind IDKind
		want string
	}{
		{PeerIDKind, "urn:jxta:peer"},
		{GroupIDKind, "urn:jxta:group"},
		{PipeIDKind, "urn:jxta:pipe"},
	}
	for _, tt := range tests {
		if id := g.New(tt.kind); !strings.HasPrefix(string(id), tt.want) {
			t.Errorf("New(%v) = %s, want prefix %s", tt.kind, id, tt.want)
		}
	}
}
