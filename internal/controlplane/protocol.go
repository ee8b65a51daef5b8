// Package controlplane provides the network control plane of the system:
// a TCP server exposing the Pipeleon runtime's program-management API
// (table entry insert/delete/modify, counter reads, program reads) and a
// matching client. It plays the role P4Runtime gRPC plays for real
// SmartNICs, using a length-prefixed framing over stdlib net — a small JSON
// header plus one raw body for the bulk payloads — so the module stays
// dependency-free.
//
// The optimizer's API-mapping guarantee (§2.3) lives below this layer, in
// core.Runtime: clients always address tables of the *original* program,
// regardless of how Pipeleon has currently rewritten the layout.
package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"sync"

	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
)

// Op identifies a request type.
type Op string

// Supported operations.
const (
	OpInsert   Op = "insert"
	OpDelete   Op = "delete"
	OpModify   Op = "modify"
	OpCounters Op = "counters"
	OpProgram  Op = "program"
	OpStats    Op = "stats"
	OpPing     Op = "ping"

	// Device operations (served when the server is built WithDevice):
	// transactional program deployment, batch measurement, raw profile
	// windows, cache counters, and the device capability description.
	// They let an off-box optimizer drive a nicd as a target.Target.
	OpDeploy       Op = "deploy"
	OpCommit       Op = "commit"
	OpRollback     Op = "rollback"
	OpMeasure      Op = "measure"
	OpProfile      Op = "profile"
	OpCacheStats   Op = "cachestats"
	OpCapabilities Op = "capabilities"
)

// Request is one control-plane call.
type Request struct {
	ID uint64 `json:"id"`
	Op Op     `json:"op"`
	// Idem is an idempotency key carried by mutating requests. A retry
	// after an ambiguous failure (applied-but-unacknowledged) reuses the
	// key, and the server replays the recorded response instead of
	// applying the mutation twice.
	Idem  string `json:"idem,omitempty"`
	Table string `json:"table,omitempty"`
	// Entry is used by insert.
	Entry *p4ir.Entry `json:"entry,omitempty"`
	// Match identifies entries for delete/modify.
	Match []p4ir.MatchValue `json:"match,omitempty"`
	// Action/Args are used by modify.
	Action string   `json:"action,omitempty"`
	Args   []string `json:"args,omitempty"`
	// Reset makes profile close the current counter window.
	Reset bool `json:"reset,omitempty"`
	// Have, on a program request, is the hex digest of the program the
	// client already holds; the server answers Unchanged instead of sending
	// that program again.
	Have string `json:"have,omitempty"`
	// Body is the frame's raw payload, outside the JSON header: the staged
	// program in p4ir's binary form for deploy, the packet batch
	// (appendPackets) for measure.
	Body []byte `json:"-"`
}

// mutating reports whether an op changes server state (and therefore
// needs idempotency protection across retries). Measure and Profile count:
// measuring advances cache and counter state, and a profile read with
// Reset closes the window — replaying either twice after an ambiguous
// failure would skew the very statistics the optimizer plans from.
func mutating(op Op) bool {
	switch op {
	case OpInsert, OpDelete, OpModify,
		OpDeploy, OpCommit, OpRollback, OpMeasure, OpProfile:
		return true
	}
	return false
}

// Response answers one request.
type Response struct {
	ID    uint64          `json:"id"`
	OK    bool            `json:"ok"`
	Error string          `json:"error,omitempty"`
	Data  json.RawMessage `json:"data,omitempty"`
	// Diags carries structured static-analysis diagnostics for deploy
	// requests: the reason a rejected program was refused, or the
	// warnings that rode along with an accepted one. Clients surface
	// them verbatim instead of re-running the analyzer.
	Diags diag.List `json:"diags,omitempty"`
	// Unchanged, on a program response, is the hex digest of the program
	// the device runs when that is the one the request said it has: the
	// response then carries no body.
	Unchanged string `json:"unchanged,omitempty"`
	// Body is the frame's raw payload: the device's program in p4ir's
	// binary form on a program response, and the answer of a measure,
	// profile, counters or cachestats request (answers.go).
	Body []byte `json:"-"`
}

// A frame is
//
//	length u32 | version u8 | header length u32 | header (JSON) | body
//
// big-endian, length counting everything after itself. The header is a
// Request or a Response; the body is whatever bulk payload rides with it
// (a program, a packet batch, a round's answers) and is empty for the
// rest.

// maxFrame bounds a single message, header and body together (16 MiB), to
// fail fast on framing corruption.
const maxFrame = 16 << 20

// protocolVersion is the frame layout's version byte. Version 2 carried
// measure, profile, counters and cachestats answers as JSON in the header;
// the layout before it was a bare length-prefixed JSON document, whose
// first byte '{' reads as version 123 here.
const protocolVersion = 3

// framePrefix is the version byte and the header length.
const framePrefix = 1 + 4

// ErrProtocolVersion is returned for a frame of another protocol version.
// Retrying cannot help: the peer runs a different build.
var ErrProtocolVersion = errors.New("controlplane: protocol version mismatch")

// writeFrame writes one frame: hdr as JSON, then body.
func writeFrame(w io.Writer, hdr any, body []byte) error {
	h, err := json.Marshal(hdr)
	if err != nil {
		return err
	}
	n := framePrefix + len(h) + len(body)
	if n > maxFrame {
		return fmt.Errorf("controlplane: frame too large (%d bytes)", n)
	}
	buf := make([]byte, 0, 4+n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, protocolVersion)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(h)))
	buf = append(append(buf, h...), body...)
	_, err = w.Write(buf)
	return err
}

// readFrame reads one frame, decodes its header into hdr and returns its
// body (nil when empty). The buffer grows with the bytes that arrive, not
// with the length the peer claims.
func readFrame(r io.Reader, hdr any) (body []byte, err error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(pre[:])
	if n > maxFrame {
		return nil, fmt.Errorf("controlplane: frame of %d bytes exceeds limit", n)
	}
	var b bytes.Buffer
	b.Grow(int(min(n, 64<<10)))
	if _, err := io.CopyN(&b, r, int64(n)); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	buf := b.Bytes()
	if len(buf) > 0 && buf[0] != protocolVersion {
		return nil, fmt.Errorf("%w: frame has version %d, this build speaks %d", ErrProtocolVersion, buf[0], protocolVersion)
	}
	if len(buf) < framePrefix {
		return nil, errors.New("controlplane: frame shorter than its prefix")
	}
	hlen := binary.BigEndian.Uint32(buf[1:framePrefix])
	if uint64(hlen) > uint64(len(buf)-framePrefix) {
		return nil, fmt.Errorf("controlplane: header of %d bytes in a frame of %d", hlen, len(buf))
	}
	buf = buf[framePrefix:]
	if err := json.Unmarshal(buf[:hlen], hdr); err != nil {
		return nil, err
	}
	if body = buf[hlen:]; len(body) == 0 {
		body = nil
	}
	return body, nil
}

// A packet batch travels as a frame body:
//
//	count | count × ( length, Serialize() bytes | wire length | fields | fields × ( length, name | value ) )
//
// every number a uvarint: the serialized frame plus the per-packet state
// serialization cannot carry (the original wire length used for throughput
// math, and metadata fields, sorted by name).

// appendPackets appends the batch's wire form to dst. A batch without
// metadata encodes without an allocation once dst has room.
func appendPackets(dst []byte, pkts []*packet.Packet) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pkts)))
	var names []string
	for _, p := range pkts {
		// The frame is serialized behind a one-byte length, which is widened
		// in place for a frame of 128 bytes or more.
		at := len(dst)
		dst = p.AppendSerialize(append(dst, 0))
		n := len(dst) - at - 1
		var lb [binary.MaxVarintLen64]byte
		k := binary.PutUvarint(lb[:], uint64(n))
		dst = append(dst, lb[1:k]...)
		copy(dst[at+k:], dst[at+1:at+1+n])
		copy(dst[at:], lb[:k])
		dst = binary.AppendUvarint(dst, uint64(max(p.WireLen, 0)))
		meta := p.MetaMap()
		names = names[:0]
		for name := range meta {
			names = append(names, name)
		}
		sort.Strings(names)
		dst = binary.AppendUvarint(dst, uint64(len(names)))
		for _, name := range names {
			dst = binary.AppendUvarint(dst, uint64(len(name)))
			dst = append(dst, name...)
			dst = binary.AppendUvarint(dst, meta[name])
		}
	}
	return dst
}

// packetSlab is the storage a decoded batch lives in. Slabs are pooled, not
// kept per connection: a device's slab of a 2 000-packet batch is ~0.9 MB
// that would otherwise stay live between measurements.
type packetSlab struct {
	pkts []packet.Packet
	ptrs []*packet.Packet
}

var slabPool = sync.Pool{New: func() any { return new(packetSlab) }}

// decodePackets reconstructs a batch into slab, which the packets live in
// until its next use. Counts and lengths are checked against the bytes that
// remain before anything is sized by them (reader.number), and the slab
// grows with the packets parsed, not with the count claimed. The packets'
// payloads alias data.
func decodePackets(slab *packetSlab, data []byte) ([]*packet.Packet, error) {
	bad := func(what string) ([]*packet.Packet, error) {
		return nil, fmt.Errorf("controlplane: malformed packet batch: %s", what)
	}
	r := &reader{data: data}
	// The smallest record that parses: a one-byte length, an Ethernet
	// header, a wire length and a field count.
	const minPacketBytes, minFieldBytes = 1 + 14 + 1 + 1, 2
	count, ok := r.number(minPacketBytes)
	if !ok {
		return bad("packet count")
	}
	slab.pkts = slab.pkts[:0]
	for i := uint64(0); i < count; i++ {
		frame := r.bytes()
		if r.bad {
			return bad("packet length")
		}
		slab.pkts = slices.Grow(slab.pkts, 1)[:len(slab.pkts)+1] // a dirty slot: ParseInto resets it
		p := &slab.pkts[len(slab.pkts)-1]
		if err := packet.ParseInto(p, frame); err != nil {
			return nil, err
		}
		wireLen, ok := r.number(0)
		if !ok || wireLen > maxFrame {
			return bad("wire length")
		}
		if wireLen > 0 {
			p.WireLen = int(wireLen)
		}
		fields, ok := r.number(minFieldBytes)
		if !ok {
			return bad("field count")
		}
		for j := uint64(0); j < fields; j++ {
			name := r.bytes()
			if r.bad {
				return bad("field name")
			}
			v, ok := r.number(0)
			if !ok {
				return bad("field value")
			}
			if err := p.Set(string(name), v); err != nil {
				return nil, err
			}
		}
	}
	if len(r.data) > 0 {
		return bad("trailing bytes")
	}
	slab.ptrs = slab.ptrs[:0]
	for i := range slab.pkts {
		slab.ptrs = append(slab.ptrs, &slab.pkts[i])
	}
	return slab.ptrs, nil
}
