package controlplane

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"testing"

	"pipeleon/internal/packet"
)

// The packet batch on the wire: byte-identical to the encoding before the
// encoder stopped allocating per packet, decoded into slabs whose reuse
// leaks nothing (FuzzDecodePackets), and sized by what arrives, not by what
// a body claims.

// goldenBatch covers every shape the batch encoder handles: TCP and UDP
// (checksums over the pseudo-header), IPv4 of another protocol, non-IPv4,
// odd-length and long payloads (a two-byte length), wire lengths, inline
// metadata and metadata spilled past the inline slots.
func goldenBatch() []*packet.Packet {
	payload := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 3)
		}
		return b
	}
	eth := packet.Ethernet{DstMAC: [6]byte{2, 0, 0, 0, 0, 1}, SrcMAC: [6]byte{2, 0, 0, 0, 0, 2}, Type: packet.EtherTypeIPv4}
	ip := func(proto uint8) packet.IPv4 {
		return packet.IPv4{TOS: 0x10, ID: 7, Flags: 2, FragOff: 5, TTL: 64, Protocol: proto, SrcAddr: 0x0a000001, DstAddr: 0xc0a80101}
	}
	tcp := func(pl []byte) *packet.Packet {
		return &packet.Packet{Eth: eth, IP: ip(packet.ProtoTCP), HasIPv4: true, HasTCP: true, Payload: pl,
			TCP: packet.TCP{SrcPort: 40000, DstPort: 443, Seq: 0xdeadbeef, Ack: 2, Flags: 0x18, Window: 65535, Urgent: 9}}
	}
	udp := func(pl []byte) *packet.Packet {
		return &packet.Packet{Eth: eth, IP: ip(packet.ProtoUDP), HasIPv4: true, HasUDP: true, Payload: pl,
			UDP: packet.UDP{SrcPort: 5353, DstPort: 53}}
	}
	icmp := &packet.Packet{Eth: eth, IP: ip(1), HasIPv4: true, Payload: payload(9)}
	nonIP := &packet.Packet{Eth: packet.Ethernet{DstMAC: eth.DstMAC, SrcMAC: eth.SrcMAC, Type: 0x86dd}, Payload: payload(5)}

	inline := tcp(nil)
	for i := 0; i < 3; i++ {
		inline.Set(fmt.Sprintf("meta.golden_inline_%d", i), uint64(i)<<33|7)
	}
	spilled := udp(payload(3))
	for i := 0; i < 30; i++ {
		spilled.Set(fmt.Sprintf("meta.golden_spill_%02d", i), uint64(1000+i))
	}
	wire := tcp(payload(1))
	wire.WireLen = 1500

	return []*packet.Packet{tcp(nil), tcp(payload(13)), tcp(payload(200)), udp(nil), udp(payload(7)),
		icmp, nonIP, inline, spilled, wire}
}

const goldenPath = "testdata/batch_golden.bin"

// TestBatchEncodingGolden: the encoding of goldenBatch is the one the
// allocating encoder produced (the golden file was written by the parent
// of this encoder), byte for byte.
func TestBatchEncodingGolden(t *testing.T) {
	got := appendPackets(nil, goldenBatch())
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch encoding differs from %s (%d bytes, want %d)", goldenPath, len(got), len(want))
	}
	// Appending behind bytes already there changes nothing they precede.
	if prefix := []byte("dirty"); !bytes.Equal(appendPackets(prefix, goldenBatch())[len(prefix):], want) {
		t.Fatal("appending to a non-empty buffer changed the encoding")
	}
}

// TestAppendSerializeIsSerialize reads each packet's frame out of the golden
// file — Serialize's bytes before AppendSerialize existed — and requires
// AppendSerialize to produce them on a nil and on a dirty buffer.
func TestAppendSerializeIsSerialize(t *testing.T) {
	rest, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	uvarint := func() int {
		v, n := binary.Uvarint(rest)
		rest = rest[n:]
		return int(v)
	}
	pkts := goldenBatch()
	if uvarint() != len(pkts) {
		t.Fatal("golden count")
	}
	for i, p := range pkts {
		frame := rest[:uvarint()]
		rest = rest[len(frame):]
		if got := p.AppendSerialize(nil); !bytes.Equal(got, frame) {
			t.Fatalf("packet %d: AppendSerialize(nil) = %x\nwant %x", i, got, frame)
		}
		dirty := bytes.Repeat([]byte{0xff}, 3+len(frame))
		if got := p.AppendSerialize(dirty[:3]); !bytes.Equal(got[3:], frame) || !bytes.Equal(got[:3], dirty[:3]) {
			t.Fatalf("packet %d: AppendSerialize over stale bytes = %x", i, got)
		}
		uvarint() // wire length
		for fields := uvarint(); fields > 0; fields-- {
			rest = rest[uvarint():] // name
			uvarint()               // value
		}
	}
}

// TestBatchLongFrames: a frame too long for a one-byte length prefix is
// widened in place, however long.
func TestBatchLongFrames(t *testing.T) {
	for _, n := range []int{127 - 54, 128 - 54, 16383 - 54, 16384 - 54, 20000} {
		p, q := goldenBatch()[0], goldenBatch()[3]
		p.Payload = make([]byte, n)
		frame := p.Serialize()
		p.WireLen, q.WireLen = len(frame), len(q.Serialize()) // what a decoded packet reports
		enc := appendPackets(nil, []*packet.Packet{p, q})
		want := append(binary.AppendUvarint([]byte{2}, uint64(len(frame))), frame...)
		if !bytes.HasPrefix(enc, want) {
			t.Fatalf("frame of %d bytes: encoding starts %x", len(frame), enc[:min(len(enc), 8)])
		}
		got, err := decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		samePackets(t, got, []*packet.Packet{p, q})
	}
}

// TestBatchCodecAllocatesNothingWhenWarm: a measurement batch encodes into
// a buffer with room, and decodes into a slab that held one before, without
// an allocation.
func TestBatchCodecAllocatesNothingWhenWarm(t *testing.T) {
	batch := measureBatch()
	buf := appendPackets(nil, batch)
	if a := testing.AllocsPerRun(20, func() { buf = appendPackets(buf[:0], batch) }); a != 0 {
		t.Errorf("warm encode of %d packets: %v allocs, want 0", len(batch), a)
	}
	slab := new(packetSlab)
	if _, err := decodePackets(slab, buf); err != nil {
		t.Fatal(err)
	}
	var err error
	if a := testing.AllocsPerRun(20, func() { _, err = decodePackets(slab, buf) }); a != 0 || err != nil {
		t.Errorf("warm decode of %d packets: %v allocs (err %v), want 0", len(batch), a, err)
	}
}

// TestHostileCountAllocatesByLength: a body that claims more packets than it
// holds costs memory in proportion to its length, not to its claim.
func TestHostileCountAllocatesByLength(t *testing.T) {
	const size = 30_000
	// The smallest record that parses: length 14, an Ethernet header, a
	// wire length and a field count.
	record := append([]byte{14}, make([]byte, 16)...)
	for name, body := range map[string][]byte{
		"2^40 packets":           binary.AppendUvarint(nil, 1<<40),
		"one packet per 3 bytes": append(binary.AppendUvarint(nil, size/3), make([]byte, size)...),
		"one record short":       append(binary.AppendUvarint(nil, size/17), bytes.Repeat(record, size/17-1)...),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode(body)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		// A slab slot (~460 bytes) per 17-byte record parsed, grown by
		// doubling, is the most a body can cost.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64*uint64(len(body))+64<<10 {
			t.Errorf("%s: a %d-byte body allocated %d bytes", name, len(body), grew)
		}
	}
}
