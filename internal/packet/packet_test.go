package packet

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func tcpPacket() *Packet {
	return &Packet{
		Eth:     Ethernet{DstMAC: [6]byte{2, 0, 0, 0, 0, 1}, SrcMAC: [6]byte{2, 0, 0, 0, 0, 2}, Type: EtherTypeIPv4},
		IP:      IPv4{TTL: 64, Protocol: ProtoTCP, SrcAddr: 0x0a000001, DstAddr: 0x0a000002},
		TCP:     TCP{SrcPort: 12345, DstPort: 80, Seq: 1000, Flags: 0x18, Window: 65535},
		HasIPv4: true, HasTCP: true,
		Payload: []byte("hello world"),
	}
}

func TestSerializeParseRoundTripTCP(t *testing.T) {
	p := tcpPacket()
	wire := p.Serialize()
	back, err := Parse(wire)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !back.HasIPv4 || !back.HasTCP {
		t.Fatal("layers lost in round trip")
	}
	if back.IP.SrcAddr != p.IP.SrcAddr || back.IP.DstAddr != p.IP.DstAddr {
		t.Error("IP addresses mangled")
	}
	if back.TCP.SrcPort != 12345 || back.TCP.DstPort != 80 || back.TCP.Seq != 1000 {
		t.Error("TCP fields mangled")
	}
	if string(back.Payload) != "hello world" {
		t.Errorf("payload = %q", back.Payload)
	}
	if back.WireLen != len(wire) {
		t.Errorf("WireLen = %d, want %d", back.WireLen, len(wire))
	}
}

func TestSerializeParseRoundTripUDP(t *testing.T) {
	p := &Packet{
		Eth:     Ethernet{Type: EtherTypeIPv4},
		IP:      IPv4{TTL: 32, Protocol: ProtoUDP, SrcAddr: 1, DstAddr: 2},
		UDP:     UDP{SrcPort: 53, DstPort: 5353},
		HasIPv4: true, HasUDP: true,
		Payload: []byte{1, 2, 3},
	}
	back, err := Parse(p.Serialize())
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !back.HasUDP || back.UDP.SrcPort != 53 || back.UDP.DstPort != 5353 {
		t.Errorf("UDP fields: %+v", back.UDP)
	}
	if len(back.Payload) != 3 {
		t.Errorf("payload len = %d", len(back.Payload))
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	wire := tcpPacket().Serialize()
	// Verify the IP header checksums to zero.
	ipHdr := wire[14 : 14+20]
	if got := checksum(0, ipHdr); got != 0 {
		t.Errorf("IP header checksum over full header = %#x, want 0", got)
	}
}

func TestParseTruncated(t *testing.T) {
	wire := tcpPacket().Serialize()
	for _, n := range []int{0, 5, 13, 20, 33, 40, 50} {
		if n >= len(wire) {
			continue
		}
		if _, err := Parse(wire[:n]); err == nil {
			t.Errorf("Parse accepted %d-byte truncation", n)
		}
	}
}

func TestParseNonIPv4Tolerated(t *testing.T) {
	raw := make([]byte, 60)
	raw[12], raw[13] = 0x08, 0x06 // ARP
	p, err := Parse(raw)
	if err != nil {
		t.Fatalf("non-IP packet should parse tolerantly: %v", err)
	}
	if p.HasIPv4 {
		t.Error("ARP packet must not claim IPv4")
	}
	if len(p.Payload) != 46 {
		t.Errorf("payload = %d bytes, want 46", len(p.Payload))
	}
}

func TestGetSetRoundTrip(t *testing.T) {
	p := tcpPacket()
	for _, name := range KnownFields() {
		v, ok := p.Get(name)
		if !ok {
			t.Errorf("Get(%q) not ok", name)
			continue
		}
		// Writing the same value back must be a no-op.
		if err := p.Set(name, v); err != nil {
			t.Errorf("Set(%q): %v", name, err)
		}
		v2, _ := p.Get(name)
		if v2 != v {
			t.Errorf("field %q: %v != %v after set", name, v2, v)
		}
	}
}

func TestMetaFields(t *testing.T) {
	p := &Packet{}
	if v, ok := p.Get("meta.x"); !ok || v != 0 {
		t.Errorf("unset meta should read 0, got %v %v", v, ok)
	}
	if err := p.Set("meta.x", 42); err != nil {
		t.Fatalf("Set meta: %v", err)
	}
	if v, _ := p.Get("meta.x"); v != 42 {
		t.Errorf("meta.x = %v, want 42", v)
	}
}

func TestSetUnknownFieldErrors(t *testing.T) {
	p := &Packet{}
	if err := p.Set("bogus.field", 1); err == nil {
		t.Error("Set of unknown field should error")
	}
	if _, ok := p.Get("bogus.field"); ok {
		t.Error("Get of unknown field should not be ok")
	}
}

func TestFieldWidth(t *testing.T) {
	if FieldWidth("ipv4.srcAddr") != 32 || FieldWidth("tcp.dport") != 16 || FieldWidth("eth.srcMac") != 48 {
		t.Error("wrong widths")
	}
	if FieldWidth("meta.anything") != 32 {
		t.Error("meta default should be 32")
	}
}

func TestFlowKeyAndHash(t *testing.T) {
	p := tcpPacket()
	k := p.Flow()
	if k.SrcPort != 12345 || k.DstPort != 80 || k.Proto != ProtoTCP {
		t.Errorf("flow = %+v", k)
	}
	k2 := k
	if k.FastHash() != k2.FastHash() {
		t.Error("hash not deterministic")
	}
	k2.DstPort = 81
	if k.FastHash() == k2.FastHash() {
		t.Error("different flows should (overwhelmingly) hash differently")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := tcpPacket()
	p.Set("meta.a", 1)
	c := p.Clone()
	c.Set("meta.a", 2)
	c.IP.TTL = 1
	if v, _ := p.Get("meta.a"); v != 1 {
		t.Error("clone shares meta map")
	}
	if p.IP.TTL != 64 {
		t.Error("clone shares header struct")
	}
}

// Property: any (src, dst, sport, dport) synthesized packet round-trips.
func TestRoundTripProperty(t *testing.T) {
	f := func(src, dst uint32, sport, dport uint16, ttl uint8) bool {
		p := &Packet{
			Eth:     Ethernet{Type: EtherTypeIPv4},
			IP:      IPv4{TTL: ttl, Protocol: ProtoTCP, SrcAddr: src, DstAddr: dst},
			TCP:     TCP{SrcPort: sport, DstPort: dport},
			HasIPv4: true, HasTCP: true,
		}
		back, err := Parse(p.Serialize())
		if err != nil {
			return false
		}
		return back.IP.SrcAddr == src && back.IP.DstAddr == dst &&
			back.TCP.SrcPort == sport && back.TCP.DstPort == dport && back.IP.TTL == ttl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001 0xf203 0xf4f5 0xf6f7 -> checksum 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := checksum(0, data); got != 0x220d {
		t.Errorf("checksum = %#x, want 0x220d", got)
	}
}

// TestPseudoHeaderChecksumInPlace: summing the pseudo-header's words ahead
// of the segment is the checksum of the two laid out in one buffer, as it
// was computed before — both length parities, and segments long enough to
// carry many times and to overflow the 16-bit length field.
func TestPseudoHeaderChecksumInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 70000; n += 1 + n/3 {
		l4 := make([]byte, n)
		if n%2 == 0 {
			rng.Read(l4)
		} else {
			for i := range l4 {
				l4[i] = 0xff
			}
		}
		src, dst, proto := rng.Uint32(), rng.Uint32(), uint8(rng.Intn(256))
		ph := binary.BigEndian.AppendUint32(nil, src)
		ph = binary.BigEndian.AppendUint32(ph, dst)
		ph = append(ph, 0, proto)
		ph = binary.BigEndian.AppendUint16(ph, uint16(n))
		if got, want := pseudoHeaderChecksum(src, dst, proto, l4), checksum(0, append(ph, l4...)); got != want {
			t.Fatalf("%d-byte segment: %#x, want %#x", n, got, want)
		}
	}
}

// Parse decodes an Ethernet/IPv4/{TCP,UDP} packet. Unknown EtherTypes or
// IP protocols parse successfully with the remaining bytes as payload —
// callers decide whether that is an error (mirroring gopacket's tolerant
// ErrorLayer behaviour).
func Parse(data []byte) (*Packet, error) {
	p := new(Packet)
	if err := ParseInto(p, data); err != nil {
		return nil, err
	}
	return p, nil
}

// Get reads a named field from the packet. Metadata fields read zero when
// absent. ok is false only for unknown non-meta names.
func (p *Packet) Get(name string) (uint64, bool) {
	id := FieldIDFor(name)
	if id == FieldInvalid {
		return 0, false
	}
	return p.GetID(id), true
}
