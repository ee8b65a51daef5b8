package packet

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// FieldInfo describes a named header field available to match-action keys.
type FieldInfo struct {
	Name  string
	Width int // bits
}

// FieldID is the compiled form of a field name: a small integer the
// emulator's execution plans resolve once at table/action compile time so
// the per-packet path reads and writes fields by index instead of by
// string switch. IDs below metaBase address fixed header fields; IDs at or
// above metaBase address interned "meta.*" scratch fields.
type FieldID int32

// FieldInvalid marks an unresolvable field reference; compiled operands
// carrying it fall back to the string API (which reports the miss).
const FieldInvalid FieldID = -1

// Header field IDs, in registry order.
const (
	fieldEthDstMac FieldID = iota
	fieldEthSrcMac
	fieldEthType
	fieldIPTOS
	fieldIPTTL
	fieldIPProto
	fieldIPSrcAddr
	fieldIPDstAddr
	fieldIPID
	fieldTCPSport
	fieldTCPDport
	fieldTCPSeq
	fieldTCPFlags
	fieldUDPSport
	fieldUDPDport
)

// metaBase is the first metadata FieldID; meta IDs are assigned by
// interning order and only ever grow.
const metaBase FieldID = 256

// registry lists every addressable header field with its wire width.
// Metadata fields ("meta.*") are dynamic 32-bit scratch fields.
var registry = map[string]FieldInfo{
	"eth.dstMac":   {"eth.dstMac", 48},
	"eth.srcMac":   {"eth.srcMac", 48},
	"eth.type":     {"eth.type", 16},
	"ipv4.tos":     {"ipv4.tos", 8},
	"ipv4.ttl":     {"ipv4.ttl", 8},
	"ipv4.proto":   {"ipv4.proto", 8},
	"ipv4.srcAddr": {"ipv4.srcAddr", 32},
	"ipv4.dstAddr": {"ipv4.dstAddr", 32},
	"ipv4.id":      {"ipv4.id", 16},
	"tcp.sport":    {"tcp.sport", 16},
	"tcp.dport":    {"tcp.dport", 16},
	"tcp.seq":      {"tcp.seq", 32},
	"tcp.flags":    {"tcp.flags", 8},
	"udp.sport":    {"udp.sport", 16},
	"udp.dport":    {"udp.dport", 16},
}

// headerIDs maps header field names to their fixed IDs.
var headerIDs = map[string]FieldID{
	"eth.dstMac":   fieldEthDstMac,
	"eth.srcMac":   fieldEthSrcMac,
	"eth.type":     fieldEthType,
	"ipv4.tos":     fieldIPTOS,
	"ipv4.ttl":     fieldIPTTL,
	"ipv4.proto":   fieldIPProto,
	"ipv4.srcAddr": fieldIPSrcAddr,
	"ipv4.dstAddr": fieldIPDstAddr,
	"ipv4.id":      fieldIPID,
	"tcp.sport":    fieldTCPSport,
	"tcp.dport":    fieldTCPDport,
	"tcp.seq":      fieldTCPSeq,
	"tcp.flags":    fieldTCPFlags,
	"udp.sport":    fieldUDPSport,
	"udp.dport":    fieldUDPDport,
}

// metaReg interns "meta.*" names to IDs. Interning happens at program
// compile / packet synthesis time; the per-packet path only compares the
// resulting integers, which also keeps Packet free of interior pointers.
var metaReg = struct {
	sync.RWMutex
	ids   map[string]FieldID
	names []string
	// count mirrors len(names) for lock-free readers: a packet sizes its
	// dense metadata store to cover every field interned so far.
	count atomic.Int32
}{ids: map[string]FieldID{}}

// FieldIDFor resolves a field name to its ID, interning metadata names on
// first use. Unknown non-meta names return FieldInvalid.
func FieldIDFor(name string) FieldID {
	if id, ok := headerIDs[name]; ok {
		return id
	}
	if !strings.HasPrefix(name, "meta.") {
		return FieldInvalid
	}
	metaReg.RLock()
	id, ok := metaReg.ids[name]
	metaReg.RUnlock()
	if ok {
		return id
	}
	metaReg.Lock()
	defer metaReg.Unlock()
	if id, ok := metaReg.ids[name]; ok {
		return id
	}
	id = metaBase + FieldID(len(metaReg.names))
	metaReg.ids[name] = id
	metaReg.names = append(metaReg.names, name)
	metaReg.count.Store(int32(len(metaReg.names)))
	return id
}

// FieldName returns the name for a FieldID ("" for FieldInvalid or an
// unassigned meta ID).
func FieldName(id FieldID) string {
	if id >= metaBase {
		metaReg.RLock()
		defer metaReg.RUnlock()
		if i := int(id - metaBase); i < len(metaReg.names) {
			return metaReg.names[i]
		}
		return ""
	}
	switch id {
	case fieldEthDstMac:
		return "eth.dstMac"
	case fieldEthSrcMac:
		return "eth.srcMac"
	case fieldEthType:
		return "eth.type"
	case fieldIPTOS:
		return "ipv4.tos"
	case fieldIPTTL:
		return "ipv4.ttl"
	case fieldIPProto:
		return "ipv4.proto"
	case fieldIPSrcAddr:
		return "ipv4.srcAddr"
	case fieldIPDstAddr:
		return "ipv4.dstAddr"
	case fieldIPID:
		return "ipv4.id"
	case fieldTCPSport:
		return "tcp.sport"
	case fieldTCPDport:
		return "tcp.dport"
	case fieldTCPSeq:
		return "tcp.seq"
	case fieldTCPFlags:
		return "tcp.flags"
	case fieldUDPSport:
		return "udp.sport"
	case fieldUDPDport:
		return "udp.dport"
	}
	return ""
}

// FieldWidth returns the bit width of a field name. Unknown and metadata
// fields report 32.
func FieldWidth(name string) int {
	if fi, ok := registry[name]; ok {
		return fi.Width
	}
	return 32
}

// KnownFields returns the registered non-metadata field names, sorted.
func KnownFields() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// GetID reads a field by compiled ID. Absent metadata fields read zero.
func (p *Packet) GetID(id FieldID) uint64 {
	if id >= metaBase {
		if len(p.metaSet) > 0 {
			i := uint(id - metaBase)
			if w := i >> 6; w < uint(len(p.metaSet)) && p.metaSet[w]&(1<<(i&63)) != 0 {
				return p.metaDense[i]
			}
			return 0
		}
		for j := 0; j < int(p.nMeta); j++ {
			if p.metaKeys[j] == id {
				return p.metaVals[j]
			}
		}
		return 0
	}
	switch id {
	case fieldEthDstMac:
		return macToU64(p.Eth.DstMAC)
	case fieldEthSrcMac:
		return macToU64(p.Eth.SrcMAC)
	case fieldEthType:
		return uint64(p.Eth.Type)
	case fieldIPTOS:
		return uint64(p.IP.TOS)
	case fieldIPTTL:
		return uint64(p.IP.TTL)
	case fieldIPProto:
		return uint64(p.IP.Protocol)
	case fieldIPSrcAddr:
		return uint64(p.IP.SrcAddr)
	case fieldIPDstAddr:
		return uint64(p.IP.DstAddr)
	case fieldIPID:
		return uint64(p.IP.ID)
	case fieldTCPSport:
		return uint64(p.TCP.SrcPort)
	case fieldTCPDport:
		return uint64(p.TCP.DstPort)
	case fieldTCPSeq:
		return uint64(p.TCP.Seq)
	case fieldTCPFlags:
		return uint64(p.TCP.Flags)
	case fieldUDPSport:
		return uint64(p.UDP.SrcPort)
	case fieldUDPDport:
		return uint64(p.UDP.DstPort)
	}
	return 0
}

// Set writes a named field. Unknown non-meta names return an error.
func (p *Packet) Set(name string, v uint64) error {
	id := FieldIDFor(name)
	if id == FieldInvalid {
		return fmt.Errorf("packet: unknown field %q", name)
	}
	p.SetID(id, v)
	return nil
}

// SetID writes a field by compiled ID. Writes to FieldInvalid are dropped.
func (p *Packet) SetID(id FieldID, v uint64) {
	if id >= metaBase {
		if len(p.metaSet) == 0 {
			for j := 0; j < int(p.nMeta); j++ {
				if p.metaKeys[j] == id {
					p.metaVals[j] = v
					return
				}
			}
			if int(p.nMeta) < metaInlineSlots {
				p.metaKeys[p.nMeta] = id
				p.metaVals[p.nMeta] = v
				p.nMeta++
				return
			}
			p.spillMeta()
		}
		i := uint(id - metaBase)
		if i>>6 >= uint(len(p.metaSet)) {
			p.growMeta(int(i>>6) + 1)
		}
		p.metaSet[i>>6] |= 1 << (i & 63)
		p.metaDense[i] = v
		return
	}
	switch id {
	case fieldEthDstMac:
		u64ToMAC(v, &p.Eth.DstMAC)
	case fieldEthSrcMac:
		u64ToMAC(v, &p.Eth.SrcMAC)
	case fieldEthType:
		p.Eth.Type = uint16(v)
	case fieldIPTOS:
		p.IP.TOS = uint8(v)
	case fieldIPTTL:
		p.IP.TTL = uint8(v)
	case fieldIPProto:
		p.IP.Protocol = uint8(v)
	case fieldIPSrcAddr:
		p.IP.SrcAddr = uint32(v)
	case fieldIPDstAddr:
		p.IP.DstAddr = uint32(v)
	case fieldIPID:
		p.IP.ID = uint16(v)
	case fieldTCPSport:
		p.TCP.SrcPort = uint16(v)
	case fieldTCPDport:
		p.TCP.DstPort = uint16(v)
	case fieldTCPSeq:
		p.TCP.Seq = uint32(v)
	case fieldTCPFlags:
		p.TCP.Flags = uint8(v)
	case fieldUDPSport:
		p.UDP.SrcPort = uint16(v)
	case fieldUDPDport:
		p.UDP.DstPort = uint16(v)
	}
}

func macToU64(m [6]byte) uint64 {
	var v uint64
	for _, b := range m {
		v = v<<8 | uint64(b)
	}
	return v
}

func u64ToMAC(v uint64, m *[6]byte) {
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
}

// spillMeta moves the inline fields into the dense store, which holds
// every field from then on.
func (p *Packet) spillMeta() {
	for j := 0; j < int(p.nMeta); j++ {
		i := uint(p.metaKeys[j] - metaBase)
		if i>>6 >= uint(len(p.metaSet)) {
			p.growMeta(int(i>>6) + 1)
		}
		p.metaSet[i>>6] |= 1 << (i & 63)
		p.metaDense[i] = p.metaVals[j]
	}
	if len(p.metaSet) == 0 {
		p.growMeta(1)
	}
	p.nMeta = 0
}

// growMeta extends the dense store to at least words bitmap words,
// inside the packet's buffer when it is large enough. New bitmap words
// are cleared; value words are not (the bitmap guards them).
func (p *Packet) growMeta(words int) {
	old := len(p.metaSet)
	if words > cap(p.metaSet) {
		// Cover every field interned so far: the packet then allocates
		// once however many of them its program goes on to write.
		if all := (int(metaReg.count.Load()) + 63) >> 6; words < all {
			words = all
		}
		buf := make([]uint64, 65*words)
		copy(buf[:words], p.metaSet)
		copy(buf[words:], p.metaDense)
		p.metaSet, p.metaDense = buf[:words:words], buf[words:]
		return
	}
	p.metaSet = p.metaSet[:words]
	clear(p.metaSet[old:])
	p.metaDense = p.metaDense[:64*words]
}

// Clone deep-copies the packet (payload shared — it is immutable in the
// emulator; metadata copied). Packets whose metadata fits the inline
// slots clone in a single allocation.
func (p *Packet) Clone() *Packet {
	cp := new(Packet)
	p.CloneInto(cp)
	return cp
}

// CloneInto copies the packet into dst, reusing dst's storage — the
// allocation-free form of Clone the burst measurement loops use (one
// scratch Packet per worker instead of one heap clone per packet). Like
// Clone, the payload is shared and metadata is deep-copied: dst keeps its
// own dense-store buffer, of which nothing a previous occupant wrote stays
// readable. A dst that owns a buffer takes the fields into it at once —
// its last occupant outgrew the inline slots, and this one, run through
// the same program, would too.
func (p *Packet) CloneInto(dst *Packet) {
	set, over := dst.metaSet[:0], dst.metaDense[:0]
	*dst = *p
	dst.metaSet, dst.metaDense = set, over
	if len(p.metaSet) == 0 {
		if cap(set) > 0 {
			dst.spillMeta()
		}
		return
	}
	dst.growMeta(len(p.metaSet))
	copy(dst.metaSet, p.metaSet)
	for w, m := range p.metaSet {
		if m != 0 {
			copy(dst.metaDense[64*w:64*w+64], p.metaDense[64*w:])
		}
	}
}

// HasMeta reports whether the packet carries a metadata field.
func (p *Packet) HasMeta() bool {
	return p.nMeta > 0 || slices.ContainsFunc(p.metaSet, func(w uint64) bool { return w != 0 })
}

// MetaMap returns a copy of all metadata fields keyed by full name
// ("meta.x"), nil when the packet has none. Intended for tests, debugging
// and the control plane's batch encoder, not the packet path.
func (p *Packet) MetaMap() map[string]uint64 {
	if !p.HasMeta() {
		return nil
	}
	out := make(map[string]uint64, int(p.nMeta))
	for i := 0; i < int(p.nMeta); i++ {
		out[FieldName(p.metaKeys[i])] = p.metaVals[i]
	}
	for w, m := range p.metaSet {
		for ; m != 0; m &= m - 1 {
			i := 64*w + bits.TrailingZeros64(m)
			out[FieldName(metaBase+FieldID(i))] = p.metaDense[i]
		}
	}
	return out
}
