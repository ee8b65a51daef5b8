// Package packet provides the minimal packet substrate the SmartNIC
// emulator and the traffic generator run on: Ethernet/IPv4/TCP/UDP header
// parsing and serialization (stdlib only, in the spirit of gopacket's
// decode/serialize interfaces), a named-field view used by match-action
// keys ("ipv4.srcAddr", "tcp.dport", ...), and flow hashing.
//
// Header field values are exposed as uint64 regardless of their wire
// width; widths are tracked in the field registry so LPM/ternary masks can
// be synthesized correctly.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Errors returned by Parse.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrUnsupported = errors.New("packet: unsupported protocol")
)

// EtherType values understood by the parser.
const (
	EtherTypeIPv4 = 0x0800
)

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// Ethernet is the L2 header.
type Ethernet struct {
	DstMAC [6]byte
	SrcMAC [6]byte
	Type   uint16
}

// IPv4 is the L3 header (options unsupported; IHL fixed at 5).
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	SrcAddr  uint32
	DstAddr  uint32
}

// TCP is the L4 TCP header (options unsupported; data offset fixed at 5).
type TCP struct {
	SrcPort  uint16
	DstPort  uint16
	Seq      uint32
	Ack      uint32
	Flags    uint8
	Window   uint16
	Checksum uint16
	Urgent   uint16
}

// UDP is the L4 UDP header.
type UDP struct {
	SrcPort  uint16
	DstPort  uint16
	Length   uint16
	Checksum uint16
}

// Packet is a parsed (or synthesized) packet plus the per-packet metadata
// fields P4 programs use ("meta.*"). The zero value is an empty non-IP
// packet.
type Packet struct {
	Eth     Ethernet
	IP      IPv4
	TCP     TCP
	UDP     UDP
	HasIPv4 bool
	HasTCP  bool
	HasUDP  bool
	Payload []byte
	// Metadata fields ("meta.x") are keyed by interned FieldID. A packet
	// keeps its first metaInlineSlots distinct fields in a small inline
	// array, so a Packet of a small program holds no pointer but its
	// payload and clones as one struct copy. The write of one field more
	// moves them all to the dense store, and len(metaSet) > 0 from then
	// on: metaDense[id-metaBase] holds a value and bit id-metaBase of
	// metaSet says whether it is present (a word whose bit is clear is
	// garbage, possibly a previous occupant's). The buffer behind both
	// slices belongs to this packet alone; CloneInto keeps the
	// destination's buffer, so a scratch packet allocates once. Access via
	// Get/Set/GetID/SetID/MetaMap.
	nMeta     uint8
	metaKeys  [metaInlineSlots]FieldID
	metaVals  [metaInlineSlots]uint64
	metaSet   []uint64 // presence bitmap of the dense store; empty = inline
	metaDense []uint64 // len == 64*len(metaSet)
	// WireLen is the original wire length in bytes (for throughput math);
	// Serialize output may differ if fields changed.
	WireLen int
}

// metaInlineSlots is the inline metadata capacity. It covers the
// hand-written programs (dash.p4 touches under a dozen fields); the
// synthetic programs write up to three scratch fields per table, so the
// 110-table program spills to the dense store on every packet.
const metaInlineSlots = 24

// Header sizes.
const (
	ethLen  = 14
	ipv4Len = 20
	tcpLen  = 20
	udpLen  = 8
)

// ParseInto is Parse into p. Like CloneInto's destination, p keeps its own
// metadata buffer, of which nothing a previous occupant wrote stays
// readable. On error p holds a partial parse.
func ParseInto(p *Packet, data []byte) error {
	set, dense := p.metaSet[:0], p.metaDense[:0]
	*p = Packet{WireLen: len(data), metaSet: set, metaDense: dense}
	if len(data) < ethLen {
		return fmt.Errorf("%w: %d bytes for ethernet", ErrTruncated, len(data))
	}
	copy(p.Eth.DstMAC[:], data[0:6])
	copy(p.Eth.SrcMAC[:], data[6:12])
	p.Eth.Type = binary.BigEndian.Uint16(data[12:14])
	rest := data[ethLen:]
	if p.Eth.Type != EtherTypeIPv4 {
		p.Payload = rest
		return nil
	}
	if len(rest) < ipv4Len {
		return fmt.Errorf("%w: %d bytes for ipv4", ErrTruncated, len(rest))
	}
	vihl := rest[0]
	if vihl>>4 != 4 {
		return fmt.Errorf("%w: ip version %d", ErrUnsupported, vihl>>4)
	}
	ihl := int(vihl&0x0f) * 4
	if ihl < ipv4Len || len(rest) < ihl {
		return fmt.Errorf("%w: ihl %d", ErrTruncated, ihl)
	}
	p.HasIPv4 = true
	p.IP.TOS = rest[1]
	p.IP.TotalLen = binary.BigEndian.Uint16(rest[2:4])
	p.IP.ID = binary.BigEndian.Uint16(rest[4:6])
	fo := binary.BigEndian.Uint16(rest[6:8])
	p.IP.Flags = uint8(fo >> 13)
	p.IP.FragOff = fo & 0x1fff
	p.IP.TTL = rest[8]
	p.IP.Protocol = rest[9]
	p.IP.Checksum = binary.BigEndian.Uint16(rest[10:12])
	p.IP.SrcAddr = binary.BigEndian.Uint32(rest[12:16])
	p.IP.DstAddr = binary.BigEndian.Uint32(rest[16:20])
	l4 := rest[ihl:]
	switch p.IP.Protocol {
	case ProtoTCP:
		if len(l4) < tcpLen {
			return fmt.Errorf("%w: %d bytes for tcp", ErrTruncated, len(l4))
		}
		p.HasTCP = true
		p.TCP.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.TCP.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.TCP.Seq = binary.BigEndian.Uint32(l4[4:8])
		p.TCP.Ack = binary.BigEndian.Uint32(l4[8:12])
		off := int(l4[12]>>4) * 4
		if off < tcpLen || len(l4) < off {
			return fmt.Errorf("%w: tcp offset %d", ErrTruncated, off)
		}
		p.TCP.Flags = l4[13]
		p.TCP.Window = binary.BigEndian.Uint16(l4[14:16])
		p.TCP.Checksum = binary.BigEndian.Uint16(l4[16:18])
		p.TCP.Urgent = binary.BigEndian.Uint16(l4[18:20])
		p.Payload = l4[off:]
	case ProtoUDP:
		if len(l4) < udpLen {
			return fmt.Errorf("%w: %d bytes for udp", ErrTruncated, len(l4))
		}
		p.HasUDP = true
		p.UDP.SrcPort = binary.BigEndian.Uint16(l4[0:2])
		p.UDP.DstPort = binary.BigEndian.Uint16(l4[2:4])
		p.UDP.Length = binary.BigEndian.Uint16(l4[4:6])
		p.UDP.Checksum = binary.BigEndian.Uint16(l4[6:8])
		p.Payload = l4[udpLen:]
	default:
		p.Payload = l4
	}
	return nil
}

// Serialize encodes the packet back to wire format, recomputing lengths
// and the IPv4 header checksum (and L4 checksums over the pseudo-header).
func (p *Packet) Serialize() []byte { return p.AppendSerialize(nil) }

// AppendSerialize appends Serialize's bytes to dst.
func (p *Packet) AppendSerialize(dst []byte) []byte {
	l4 := 0
	if p.HasTCP {
		l4 = tcpLen
	} else if p.HasUDP {
		l4 = udpLen
	}
	ipTotal := 0
	if p.HasIPv4 {
		ipTotal = ipv4Len + l4 + len(p.Payload)
	}
	size := ethLen + len(p.Payload)
	if p.HasIPv4 {
		size = ethLen + ipTotal
	}
	dst = slices.Grow(dst, size)
	dst = dst[:len(dst)+size]
	out := dst[len(dst)-size:]
	copy(out[0:6], p.Eth.DstMAC[:])
	copy(out[6:12], p.Eth.SrcMAC[:])
	binary.BigEndian.PutUint16(out[12:14], p.Eth.Type)
	if !p.HasIPv4 {
		copy(out[ethLen:], p.Payload)
		return dst
	}
	// Every byte is written below; the checksum field reads zero while the
	// checksum is summed.
	ip := out[ethLen:]
	ip[0] = 0x45
	ip[1] = p.IP.TOS
	binary.BigEndian.PutUint16(ip[2:4], uint16(ipTotal))
	binary.BigEndian.PutUint16(ip[4:6], p.IP.ID)
	binary.BigEndian.PutUint16(ip[6:8], uint16(p.IP.Flags)<<13|p.IP.FragOff&0x1fff)
	ip[8] = p.IP.TTL
	ip[9] = p.IP.Protocol
	binary.BigEndian.PutUint16(ip[10:12], 0)
	binary.BigEndian.PutUint32(ip[12:16], p.IP.SrcAddr)
	binary.BigEndian.PutUint32(ip[16:20], p.IP.DstAddr)
	cs := checksum(0, ip[:ipv4Len])
	binary.BigEndian.PutUint16(ip[10:12], cs)
	l4b := ip[ipv4Len:]
	switch {
	case p.HasTCP:
		binary.BigEndian.PutUint16(l4b[0:2], p.TCP.SrcPort)
		binary.BigEndian.PutUint16(l4b[2:4], p.TCP.DstPort)
		binary.BigEndian.PutUint32(l4b[4:8], p.TCP.Seq)
		binary.BigEndian.PutUint32(l4b[8:12], p.TCP.Ack)
		l4b[12] = 5 << 4
		l4b[13] = p.TCP.Flags
		binary.BigEndian.PutUint16(l4b[14:16], p.TCP.Window)
		binary.BigEndian.PutUint16(l4b[18:20], p.TCP.Urgent)
		copy(l4b[tcpLen:], p.Payload)
		binary.BigEndian.PutUint16(l4b[16:18], 0)
		sum := pseudoHeaderChecksum(p.IP.SrcAddr, p.IP.DstAddr, ProtoTCP, l4b)
		binary.BigEndian.PutUint16(l4b[16:18], sum)
	case p.HasUDP:
		binary.BigEndian.PutUint16(l4b[0:2], p.UDP.SrcPort)
		binary.BigEndian.PutUint16(l4b[2:4], p.UDP.DstPort)
		binary.BigEndian.PutUint16(l4b[4:6], uint16(udpLen+len(p.Payload)))
		copy(l4b[udpLen:], p.Payload)
		binary.BigEndian.PutUint16(l4b[6:8], 0)
		sum := pseudoHeaderChecksum(p.IP.SrcAddr, p.IP.DstAddr, ProtoUDP, l4b)
		binary.BigEndian.PutUint16(l4b[6:8], sum)
	default:
		copy(l4b, p.Payload)
	}
	return dst
}

// checksum is the RFC 1071 internet checksum of data behind words already
// summed into sum (0 for data alone).
func checksum(sum uint32, data []byte) uint16 {
	for i := 0; i+1 < len(data); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if len(data)%2 == 1 {
		sum += uint32(data[len(data)-1]) << 8
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	return ^uint16(sum)
}

// pseudoHeaderChecksum is the checksum of the IPv4 pseudo-header (source,
// destination, zero, protocol, L4 length) followed by l4, summed in place.
func pseudoHeaderChecksum(src, dst uint32, proto uint8, l4 []byte) uint16 {
	return checksum(src>>16+src&0xffff+dst>>16+dst&0xffff+uint32(proto)+uint32(uint16(len(l4))), l4)
}

// FlowKey is the canonical 5-tuple identity of a flow, usable as a map
// key. Its FastHash is symmetric-free (directional).
type FlowKey struct {
	SrcAddr, DstAddr uint32
	SrcPort, DstPort uint16
	Proto            uint8
}

// Flow extracts the packet's 5-tuple.
func (p *Packet) Flow() FlowKey {
	k := FlowKey{SrcAddr: p.IP.SrcAddr, DstAddr: p.IP.DstAddr, Proto: p.IP.Protocol}
	switch {
	case p.HasTCP:
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.HasUDP:
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return k
}

// FastHash folds the flow key to 64 bits (FNV-1a over the tuple), suitable
// for core steering — packets of one flow always land on the same core.
func (k FlowKey) FastHash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64, bytes int) {
		for i := 0; i < bytes; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime
		}
	}
	mix(uint64(k.SrcAddr), 4)
	mix(uint64(k.DstAddr), 4)
	mix(uint64(k.SrcPort), 2)
	mix(uint64(k.DstPort), 2)
	mix(uint64(k.Proto), 1)
	return h
}
