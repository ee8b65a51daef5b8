package controlplane

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// The wire: a frame is a JSON header plus one raw body, programs cross in
// p4ir's binary form and are known to the server by the digest of the bytes
// it received, and the lint verdict of a program is computed once per
// server.

// oneTable is a single-table program over tcp.dport; edit customizes it.
func oneTable(t testing.TB, name string, edit func(*p4ir.TableSpec)) *p4ir.Program {
	t.Helper()
	spec := p4ir.TableSpec{
		Name:          "acl",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.dport")}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 23}}, Action: "drop_packet"}},
	}
	if edit != nil {
		edit(&spec)
	}
	prog, err := p4ir.ChainTables(name, []p4ir.TableSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// sramPinned lints clean on a target with a fast memory tier and draws a
// PL105 warning on one without: its verdict depends on the device's Params.
func sramPinned(t testing.TB) *p4ir.Program {
	prog := oneTable(t, "pinned", nil)
	prog.Tables["acl"].SetMemTier(p4ir.TierSRAM)
	return prog
}

// tooWide carries an entry value its 16-bit key cannot hold: no program
// at all (P4S06, once the lint's PL104 error), so it is written past the
// builder's Validate and refused where the server decodes it.
func tooWide(t testing.TB) *p4ir.Program {
	prog := oneTable(t, "toowide", nil)
	prog.Tables["acl"].Entries[0].Match[0].Value = 1 << 20
	return prog
}

// ghostCache is a valid program whose layout the lint refuses whatever the
// device: a cache over a table it lacks (PL106, Error).
func ghostCache(t testing.TB) *p4ir.Program {
	prog := oneTable(t, "ghostcache", nil)
	prog.Tables["acl"].SetCacheMeta(p4ir.CacheSpec{Table: "acl", Kind: p4ir.KindCache, Covers: []string{"ghost"}})
	return prog
}

func hasCode(l diag.List, code string) bool {
	return slices.ContainsFunc(l, func(d diag.Diagnostic) bool { return d.Code == code })
}

func TestLintMemoSameDiagnostics(t *testing.T) {
	srv, dev := newDeviceServer(t) // BlueField-2: no SRAM tier
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Warnings ride along identically on the second deploy of a program.
	warned := sramPinned(t)
	first, err := cl.deployDiags(warned)
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(first, analysis.CodeTierOvercommt) || first.HasErrors() {
		t.Fatalf("first deploy: diagnostics %v, want a %s warning", first, analysis.CodeTierOvercommt)
	}
	if err := cl.Rollback(); err != nil {
		t.Fatal(err)
	}
	second, err := cl.deployDiags(warned.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("memo hit changed the diagnostics:\n first  %v\n second %v", first, second)
	}
	if ws := srv.WireStats(); ws.LintMemoMisses != 1 || ws.LintMemoHits != 1 {
		t.Fatalf("lint memo: %d misses, %d hits, want 1 and 1", ws.LintMemoMisses, ws.LintMemoHits)
	}
	if got := dev.Program().Name; got != "pinned" {
		t.Fatalf("a memo hit must still deploy: device runs %q", got)
	}

	// A rejected program is rejected on first sight and on a hit, with the
	// same diagnostics, and never reaches the device.
	var rejections [2]*DeployError
	for i := range rejections {
		err := cl.Deploy(ghostCache(t))
		if !errors.As(err, &rejections[i]) || !rejections[i].Diags.HasErrors() {
			t.Fatalf("deploy %d of an Error-diagnostic program: err = %v", i, err)
		}
	}
	if !reflect.DeepEqual(rejections[0].Diags, rejections[1].Diags) || rejections[0].Error() != rejections[1].Error() {
		t.Fatalf("memo hit changed the rejection:\n first  %v\n second %v", rejections[0], rejections[1])
	}
	if ws := srv.WireStats(); ws.LintMemoMisses != 2 || ws.LintMemoHits != 2 {
		t.Fatalf("lint memo: %d misses, %d hits, want 2 and 2", ws.LintMemoMisses, ws.LintMemoHits)
	}
	if got := dev.Program().Name; got != "pinned" {
		t.Fatalf("a rejected program reached the device: it runs %q", got)
	}

	// A different Params is a different server, with its own memo: the same
	// bytes lint clean where the target has the tier.
	withSRAM := costmodel.BlueField2()
	withSRAM.SRAMFactor, withSRAM.SRAMBytes = 0.4, 1<<20
	srv2, dev2 := newDeviceServer(t)
	dev2.SetCapabilities(target.CapabilitiesFor(withSRAM, true))
	cl2, err := Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	clean, err := cl2.deployDiags(warned)
	if err != nil {
		t.Fatal(err)
	}
	if hasCode(clean, analysis.CodeTierOvercommt) {
		t.Fatalf("the SRAM target's server reported %v", clean)
	}
}

// rawCall sends one hand-built frame and reads the response.
func rawCall(t *testing.T, conn net.Conn, hdr map[string]any, body []byte) *Response {
	t.Helper()
	if err := writeFrame(conn, hdr, body); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if _, err := readFrame(conn, &resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

// TestServerDigestsWhatItReceived: the identity of a staged program is the
// hash of the bytes that arrived. Nothing a header says about digests can
// attach one program's verdict to another program's bytes.
func TestServerDigestsWhatItReceived(t *testing.T) {
	srv, dev := newDeviceServer(t)
	conn := rawDial(t, srv.Addr())
	good, bad := oneTable(t, "good", nil).AppendBinary(nil), ghostCache(t).AppendBinary(nil)
	goodDigest, badDigest := p4ir.DigestOf(good).String(), p4ir.DigestOf(bad).String()

	// Memoize a clean verdict for good's digest.
	if resp := rawCall(t, conn, map[string]any{"id": 1, "op": OpDeploy}, good); !resp.OK {
		t.Fatalf("clean deploy refused: %s", resp.Error)
	}
	// The bad bytes, under every header field that could name good's digest.
	lie := map[string]any{"id": 2, "op": OpDeploy, "have": goodDigest, "digest": goodDigest, "unchanged": goodDigest}
	if resp := rawCall(t, conn, lie, bad); resp.OK || !resp.Diags.HasErrors() {
		t.Fatalf("bad bytes under the good program's digest were accepted: %+v", resp)
	}
	if got := dev.Program().Name; got != "good" {
		t.Fatalf("device runs %q", got)
	}
	// And the other way: the bad verdict does not stick to good bytes.
	lie = map[string]any{"id": 3, "op": OpDeploy, "have": badDigest, "digest": badDigest}
	if resp := rawCall(t, conn, lie, good); !resp.OK {
		t.Fatalf("good bytes under the bad program's digest were refused: %s", resp.Error)
	}
	// Exactly the two received byte strings were linted, once each.
	if ws := srv.WireStats(); ws.LintMemoMisses != 2 || ws.LintMemoHits != 1 {
		t.Fatalf("lint memo: %d misses, %d hits, want 2 and 1", ws.LintMemoMisses, ws.LintMemoHits)
	}

	// Bytes that are not a canonical encoding are refused before any
	// verdict exists for them: a trailing byte, a truncation.
	for name, body := range map[string][]byte{"trailing byte": append(bytes.Clone(good), 0), "truncated": good[:len(good)-1], "empty": nil} {
		if resp := rawCall(t, conn, map[string]any{"id": 9, "op": OpDeploy}, body); resp.OK {
			t.Errorf("%s: accepted", name)
		}
	}
	if ws := srv.WireStats(); ws.LintMemoMisses != 2 {
		t.Fatalf("malformed bodies reached the lint memo: %+v", ws)
	}
}

// TestUnchangedNeedsTheDigestThatWasSent: a server that answers "unchanged"
// to a client that named no digest, or another one, has broken the
// protocol; the client must not turn that into a nil program.
func TestUnchangedNeedsTheDigestThatWasSent(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		for {
			var req Request
			if _, err := readFrame(c, &req); err != nil {
				return
			}
			writeFrame(c, &Response{ID: req.ID, OK: true, Unchanged: p4ir.Digest{1}.String()}, nil)
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if p, err := cl.Program(); err == nil {
		t.Fatalf("unchanged without a digest sent: program %v, no error", p)
	}
	if p, _, err := cl.ProgramUnless(p4ir.Digest{2}); err == nil {
		t.Fatalf("unchanged for another digest: program %v, no error", p)
	}
	if p, d, err := cl.ProgramUnless(p4ir.Digest{1}); err != nil || p != nil || d != (p4ir.Digest{1}) {
		t.Fatalf("unchanged for the digest sent: (%v, %v, %v)", p, d, err)
	}
}

func TestVersionMismatchIsAnError(t *testing.T) {
	// The previous layout: a length and a bare JSON document.
	old := func(v any) []byte {
		doc, _ := json.Marshal(v)
		return append(binary.BigEndian.AppendUint32(nil, uint32(len(doc))), doc...)
	}
	var req Request
	if _, err := readFrame(bytes.NewReader(old(&Request{ID: 1, Op: OpPing})), &req); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("old-layout frame: err = %v, want ErrProtocolVersion", err)
	}
	// Version 2, whose answers rode in the JSON header, and the next one.
	for _, v := range []byte{2, protocolVersion + 1} {
		var other bytes.Buffer
		if err := writeFrame(&other, &Request{ID: 1, Op: OpPing}, nil); err != nil {
			t.Fatal(err)
		}
		other.Bytes()[4] = v
		if _, err := readFrame(&other, &req); !errors.Is(err, ErrProtocolVersion) {
			t.Fatalf("version-%d frame: err = %v, want ErrProtocolVersion", v, err)
		}
	}

	// A client facing a peer of the old build gets that error, at once:
	// reconnecting to the same build cannot help.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var accepted atomic.Int32
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func() {
				defer c.Close()
				c.Read(make([]byte, 4096))
				c.Write(old(&Response{ID: 1, OK: true}))
			}()
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)
	if err := cl.Ping(); !errors.Is(err, ErrProtocolVersion) {
		t.Fatalf("ping against an old-build peer: err = %v, want ErrProtocolVersion", err)
	}
	if n := accepted.Load(); n != 1 {
		t.Fatalf("client dialled %d times against a peer of another version", n)
	}

	// And a server drops a peer that speaks the old layout without harm.
	srv, _ := newDeviceServer(t)
	conn := rawDial(t, srv.Addr())
	conn.Write(old(&Request{ID: 1, Op: OpPing}))
	if n, _ := conn.Read(make([]byte, 1)); n != 0 {
		t.Fatal("server answered an old-layout frame")
	}
	assertServerAlive(t, srv)
}

func TestFrameCarriesBodyBesideHeader(t *testing.T) {
	body := []byte{0, 1, 2, '{', '"', 0xff}
	var buf bytes.Buffer
	if err := writeFrame(&buf, &Request{ID: 7, Op: OpDeploy}, body); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(&buf, &Request{ID: 8, Op: OpPing}, nil); err != nil {
		t.Fatal(err)
	}
	var a, b Request
	gotA, err := readFrame(&buf, &a)
	if err != nil || !bytes.Equal(gotA, body) || a.ID != 7 {
		t.Fatalf("first frame: header %+v body %x err %v", a, gotA, err)
	}
	gotB, err := readFrame(&buf, &b)
	if err != nil || gotB != nil || b.ID != 8 || b.Op != OpPing {
		t.Fatalf("second frame: header %+v body %x err %v", b, gotB, err)
	}
	if err := writeFrame(&buf, &Request{}, make([]byte, maxFrame)); err == nil {
		t.Error("a frame over maxFrame with its body was written")
	}
	// A header length pointing past the frame.
	bad := []byte{0, 0, 0, 7, protocolVersion, 0, 0, 0, 9, '{', '}'}
	if _, err := readFrame(bytes.NewReader(bad), &a); err == nil {
		t.Error("a header longer than its frame was accepted")
	}
}

// samePackets compares what the wire carries of two batches.
func samePackets(t testing.TB, got, want []*packet.Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i].Serialize(), want[i].Serialize()) {
			t.Fatalf("packet %d: bytes differ", i)
		}
		if got[i].WireLen != want[i].WireLen {
			t.Fatalf("packet %d: wire length %d, want %d", i, got[i].WireLen, want[i].WireLen)
		}
		if !reflect.DeepEqual(got[i].MetaMap(), want[i].MetaMap()) {
			t.Fatalf("packet %d: metadata %v, want %v", i, got[i].MetaMap(), want[i].MetaMap())
		}
	}
}

func testBatch(n int) []*packet.Packet {
	gen := trafficgen.New(5, 0)
	gen.AddFlows(trafficgen.UniformFlows(3, 40)...)
	pkts := gen.Batch(n)
	for i, p := range pkts {
		if i%3 == 0 {
			p.Set("meta.wire_a", uint64(i))
			p.Set("meta.wire_b", 1<<40+uint64(i))
		}
		if i%5 == 0 {
			p.WireLen = 1500
		}
	}
	return pkts
}

// decode decodes into a slab of its own.
func decode(data []byte) ([]*packet.Packet, error) { return decodePackets(new(packetSlab), data) }

func TestPacketBatchRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 64} {
		pkts := testBatch(n)
		got, err := decode(appendPackets(nil, pkts))
		if err != nil {
			t.Fatal(err)
		}
		samePackets(t, got, pkts)
	}
	if _, err := decode(nil); err == nil {
		t.Fatal("a missing body was accepted as a batch")
	}
	enc := appendPackets(nil, testBatch(4))
	for cut := 1; cut < len(enc); cut++ {
		if _, err := decode(enc[:cut]); err == nil {
			t.Fatalf("batch truncated to %d/%d bytes was accepted", cut, len(enc))
		}
	}
	if _, err := decode(append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, err := decode(binary.AppendUvarint(nil, 1<<40)); err == nil {
		t.Fatal("a count the input cannot hold was accepted")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader. It never panics,
// and a frame it accepts survives being written again.
func FuzzReadFrame(f *testing.F) {
	for _, seed := range frameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		body, err := readFrame(bytes.NewReader(data), &req)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, &req, body); err != nil {
			t.Fatalf("accepted frame cannot be written again: %v", err)
		}
		var again Request
		body2, err := readFrame(&buf, &again)
		if err != nil {
			t.Fatalf("rewritten frame rejected: %v", err)
		}
		if !bytes.Equal(body, body2) || !reflect.DeepEqual(req, again) {
			t.Fatalf("frame changed across a rewrite:\n %+v %x\n %+v %x", req, body, again, body2)
		}
	})
}

func frameSeeds() [][]byte {
	var seeds [][]byte
	for _, fr := range []struct {
		hdr  any
		body []byte
	}{
		{&Request{ID: 1, Op: OpPing}, nil},
		{&Request{ID: 2, Op: OpInsert, Table: "t", Entry: &p4ir.Entry{Action: "a", Match: []p4ir.MatchValue{{Value: 1, Mask: 0xff}}}}, nil},
		{&Request{ID: 3, Op: OpProgram, Have: p4ir.Digest{9}.String()}, nil},
		{&Request{ID: 4, Op: OpDeploy, Idem: "s-4"}, p4ir.NewProgram("p").AppendBinary(nil)},
		{&Request{ID: 5, Op: OpMeasure, Idem: "s-5"}, appendPackets(nil, testBatch(2))},
		{&Response{ID: 6, OK: false, Error: "rejected"}, nil},
	} {
		var buf bytes.Buffer
		if err := writeFrame(&buf, fr.hdr, fr.body); err != nil {
			panic(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	return append(seeds, []byte{0xff, 0xff, 0xff, 0xff}, []byte{0, 0, 0, 2, '{', '}'})
}

// FuzzDecodePackets feeds arbitrary bytes to the batch decoder. It never
// panics; a batch it accepts is a fixed point (encoded again and decoded
// again it is the same batch); and decoded into a reused, dirty slab — one
// that just held packets whose metadata spilled past the inline slots,
// between packets with inline metadata — it is the batch a fresh slab holds,
// with nothing of the previous one left.
func FuzzDecodePackets(f *testing.F) {
	for _, seed := range packetSeeds() {
		f.Add(seed)
	}
	prev := testBatch(16)
	for i, p := range prev {
		for j := 0; j < 5+35*(i%2); j++ {
			p.Set(fmt.Sprintf("meta.wire_spill_%d", j), uint64(i*j+1))
		}
		p.Payload = []byte{1, 2, 3}
		if i%4 < 2 { // and UDP beside the generator's TCP
			p.HasTCP, p.HasUDP, p.IP.Protocol = false, true, packet.ProtoUDP
			p.UDP = packet.UDP{SrcPort: 7, DstPort: 9}
		}
	}
	dirty := appendPackets(nil, prev)
	slab := new(packetSlab)
	f.Fuzz(func(t *testing.T, data []byte) {
		pkts, err := decode(data)
		if _, derr := decodePackets(slab, dirty); derr != nil {
			t.Fatal(derr)
		}
		reused, rerr := decodePackets(slab, data)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("fresh slab: %v, reused slab: %v", err, rerr)
		}
		if err != nil {
			return
		}
		samePackets(t, reused, pkts)
		for i, p := range reused {
			q := pkts[i]
			if p.Eth != q.Eth || p.IP != q.IP || p.TCP != q.TCP || p.UDP != q.UDP || p.HasIPv4 != q.HasIPv4 ||
				p.HasTCP != q.HasTCP || p.HasUDP != q.HasUDP || !bytes.Equal(p.Payload, q.Payload) {
				t.Fatalf("packet %d: the reused slab's parse %+v differs from a fresh one %+v", i, p, q)
			}
		}
		again, err := decode(appendPackets(nil, pkts))
		if err != nil {
			t.Fatalf("re-encoded batch rejected: %v", err)
		}
		samePackets(t, again, pkts)
	})
}

func packetSeeds() [][]byte {
	return [][]byte{
		nil,
		appendPackets(nil, testBatch(1)),
		appendPackets(nil, testBatch(7)),
		binary.AppendUvarint(nil, 1<<40),
	}
}

// fullProfile sets every field of a profile, each map with more than one
// key, so a field the codec skips or a map it reorders shows.
func fullProfile() *profile.Profile {
	p := profile.New()
	p.ActionCounts["t1"] = map[string]uint64{"a": 3, "b": 1 << 40}
	p.ActionCounts["t0"] = map[string]uint64{}
	p.BranchCounts["c1"], p.BranchCounts["c0"] = [2]uint64{1, 2}, [2]uint64{0, 1 << 63}
	p.CacheHits["cache1"], p.CacheHits["cache0"] = 7, 0
	p.CacheMisses["cache1"], p.CacheMisses["cache0"] = 1, 2
	p.UpdateRates["t1"], p.UpdateRates["t0"] = 123.5, 1e-300
	p.KeyCardinality["t1"], p.KeyCardinality["t0"] = 2, 300
	p.FlowCardinality = 99
	p.SampleRate = 1.0 / 1024
	return p
}

func fullCacheStats() []target.CacheStats {
	return []target.CacheStats{
		{Table: "cache1", Hits: 1, Misses: 2, Inserts: 3, Rejected: 4, Evictions: 5, Invalidations: 6, Entries: 7},
		{Table: "", Hits: 1 << 63, Entries: -1},
	}
}

func fullMeasurement() target.Measurement {
	return target.Measurement{Packets: 2000, MeanLatencyNs: 271.25, P99LatencyNs: 900, ThroughputGbps: 41.5,
		DropRate: 0.125, MeanMigrations: 0.5, VendorHitRate: 0.875, MeanCounterUpdates: 3}
}

// allSet fails for a field of v left zero: the fixtures above set every
// field, so a field added to the type must be added to them and to its codec.
func allSet(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := range rv.NumField() {
		if rv.Field(i).IsZero() {
			t.Fatalf("%T.%s is not set: add it to the fixture and to the body codec", v, rv.Type().Field(i).Name)
		}
	}
}

// TestAnswersRoundTrip: each answer body decodes to the answer encoded,
// and a body that is not canonical is refused. FuzzDecodeAnswers's seeds
// carry the floats JSON could not: NaN, ±Inf and −0.
func TestAnswersRoundTrip(t *testing.T) {
	p := fullProfile()
	allSet(t, *p)
	if back, err := decodeProfile(encodeProfile(p)); err != nil || !reflect.DeepEqual(back, p) {
		t.Fatalf("profile: %+v, %v; want %+v", back, err, p)
	}
	if back, err := decodeProfile(encodeProfile(nil)); err != nil || !reflect.DeepEqual(back, profile.New()) {
		t.Fatalf("nil profile: %+v, %v; want the empty profile", back, err)
	}
	cs := fullCacheStats()
	allSet(t, cs[0])
	if back, err := decodeAnswer((*codec).cacheStats, encodeAnswer((*codec).cacheStats, cs)); err != nil || !reflect.DeepEqual(back, cs) {
		t.Fatalf("cache stats: %+v, %v; want %+v", back, err, cs)
	}
	m := fullMeasurement()
	allSet(t, m)
	if back, err := decodeAnswer((*codec).measurement, encodeAnswer((*codec).measurement, m)); err != nil || back != m {
		t.Fatalf("measurement: %+v, %v; want %+v", back, err, m)
	}

	// Not canonical: names out of order or repeated, a long-form number.
	empty := encodeProfile(nil)
	withHits := func(names ...byte) []byte {
		b := append(bytes.Clone(empty[:2]), byte(len(names)))
		for _, n := range names {
			b = append(b, 1, n, 1)
		}
		return append(b, empty[3:]...)
	}
	if _, err := decodeProfile(withHits('a', 'b')); err != nil {
		t.Fatalf("cache hits in order refused: %v", err)
	}
	for _, names := range []string{"ba", "aa"} {
		if _, err := decodeProfile(withHits(names[0], names[1])); err == nil {
			t.Errorf("cache hits %q accepted", names)
		}
	}
	if _, err := decodeAnswer((*codec).measurement, append([]byte{0x80, 0}, make([]byte, 56)...)); err == nil {
		t.Error("a long-form packet count accepted")
	}
}

// TestAnswerHostileLengthsAllocateNothing overwrites each position of an
// honest profile and cache-stats body in turn with a huge count. Where it
// lands on a map size, a name length or a list length it is refused before
// anything is sized by it; where the body still parses it was read as a
// value, and the answer encodes back to it. Either way it costs no more
// than the honest body.
func TestAnswerHostileLengthsAllocateNothing(t *testing.T) {
	p := profile.New()
	var cs []target.CacheStats
	for i := range 300 {
		name := fmt.Sprintf("table_%03d", i)
		p.ActionCounts[name] = map[string]uint64{"hit": uint64(i), "miss": 1 << 33, "default": 7}
		p.BranchCounts[name] = [2]uint64{uint64(i), 1}
		p.UpdateRates[name] = float64(i) / 3
		p.KeyCardinality[name] = uint64(i * i)
		cs = append(cs, target.CacheStats{Table: name, Hits: uint64(i), Entries: i})
	}
	huge := binary.AppendUvarint(nil, 1<<40)
	for _, c := range []struct {
		name   string
		good   []byte
		decode func([]byte) ([]byte, error) // the re-encoded answer
	}{
		{"profile", encodeProfile(p), func(b []byte) ([]byte, error) {
			p, err := decodeProfile(b)
			return encodeProfile(p), err
		}},
		{"cache stats", encodeAnswer((*codec).cacheStats, cs), func(b []byte) ([]byte, error) {
			cs, err := decodeAnswer((*codec).cacheStats, b)
			return encodeAnswer((*codec).cacheStats, cs), err
		}},
	} {
		honest := allocatedBy(func() { c.decode(c.good) })
		for at := 0; at+len(huge) < len(c.good); at += 7 {
			input := bytes.Clone(c.good)
			copy(input[at:], huge)
			var again []byte
			var err error
			got := allocatedBy(func() { again, err = c.decode(input) })
			if err == nil && !bytes.Equal(again, input) || got > honest+16<<10 {
				t.Fatalf("%s: huge count at byte %d: allocated %d against %d for the honest body (err %v)", c.name, at, got, honest, err)
			}
		}
	}
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeAnswers feeds arbitrary bytes to the profile, cache-stats and
// measurement decoders. None panics or allocates out of proportion to its
// input, and whatever one accepts encodes back to the input byte for byte,
// every float bit for bit.
func FuzzDecodeAnswers(f *testing.F) {
	weird := profile.New()
	weird.UpdateRates["nan"], weird.UpdateRates["inf"], weird.SampleRate = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	for _, seed := range [][]byte{
		nil,
		encodeProfile(fullProfile()),
		encodeProfile(weird),
		encodeAnswer((*codec).cacheStats, fullCacheStats()),
		encodeAnswer((*codec).measurement, fullMeasurement()),
		encodeAnswer((*codec).measurement, target.Measurement{MeanLatencyNs: math.NaN(), P99LatencyNs: math.Inf(1),
			DropRate: math.Float64frombits(0x7ff8_0000_dead_beef), MeanMigrations: math.Copysign(0, -1)}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var p *profile.Profile
		var cs []target.CacheStats
		var m target.Measurement
		var perr, cerr, merr error
		if got := allocatedBy(func() {
			p, perr = decodeProfile(data)
			cs, cerr = decodeAnswer((*codec).cacheStats, data)
			m, merr = decodeAnswer((*codec).measurement, data)
		}); got > 256*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), got)
		}
		for _, c := range []struct {
			err   error
			again []byte
		}{{perr, encodeProfile(p)}, {cerr, encodeAnswer((*codec).cacheStats, cs)}, {merr, encodeAnswer((*codec).measurement, m)}} {
			if c.err == nil && !bytes.Equal(c.again, data) {
				t.Fatalf("accepted body %x re-encodes as %x", data, c.again)
			}
		}
	})
}
