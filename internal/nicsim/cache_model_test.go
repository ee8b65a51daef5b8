package nicsim

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
)

// cacheModel drives the slab flow cache and the reference side by side
// and fails on the first operation whose return value or CacheStats
// differ.
type cacheModel struct {
	t   *testing.T
	fc  *flowCache
	ref *refFlowCache
	now int64 // virtual clock, ns since the epoch
	buf []fieldWrite
	ops int
}

func newCacheModel(t *testing.T, budget int, limit float64) *cacheModel {
	spec := p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: budget, InsertLimit: limit}
	return &cacheModel{t: t, fc: newFlowCache(spec, nil), ref: newRefFlowCache(spec, nil)}
}

// refKey is the byte key the reference sees for a word key: the words
// big-endian, as the datapath built it before the rewrite.
func refKey(words []uint64) []byte {
	out := make([]byte, 0, 8*len(words))
	for _, w := range words {
		out = binary.BigEndian.AppendUint64(out, w)
	}
	return out
}

func (m *cacheModel) check(op string) {
	m.t.Helper()
	m.ops++
	if got, want := m.fc.stats(), m.ref.stats(); got != want {
		m.t.Fatalf("op %d (%s): stats %+v, reference %+v", m.ops, op, got, want)
	}
}

func sameResult(a, b cachedResult) bool {
	if a.dropped != b.dropped || len(a.writes) != len(b.writes) {
		return false
	}
	for i := range a.writes {
		if a.writes[i] != b.writes[i] {
			return false
		}
	}
	return true
}

func (m *cacheModel) get(key []uint64) {
	m.t.Helper()
	got, ok := m.fc.get(key, m.buf)
	m.buf = got.writes
	want, wantOK := m.ref.get(refKey(key))
	if ok != wantOK || !sameResult(got, want) {
		m.t.Fatalf("op %d get(%x) = %+v %v, reference %+v %v", m.ops+1, key, got, ok, want, wantOK)
	}
	m.check("get")
}

func (m *cacheModel) put(key []uint64, res cachedResult, advance int64) {
	m.t.Helper()
	m.now += advance
	now := time.Unix(0, m.now)
	got, want := m.fc.put(key, res, now), m.ref.put(refKey(key), res, now)
	if got != want {
		m.t.Fatalf("op %d put(%x) = %v, reference %v", m.ops+1, key, got, want)
	}
	m.check("put")
}

func (m *cacheModel) invalidate() {
	m.t.Helper()
	m.fc.invalidate()
	m.ref.invalidate()
	m.check("invalidate")
}

// run interprets prog as an operation stream: one opcode byte, then the
// operands the opcode takes. Keys come from a small space so that hits,
// updates in place and evictions all occur; key lengths vary so that keys
// that are prefixes of one another meet in one cache.
func (m *cacheModel) run(prog []byte) {
	m.t.Helper()
	next := func() uint64 {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return uint64(b)
	}
	key := func() []uint64 {
		k := make([]uint64, 1+next()%3)
		for i := range k {
			// Multiples of a large odd constant: the keys differ in their
			// high bits as well, like hashed or address-valued fields.
			k[i] = (next() % 24) * 0x9e3779b97f4a7c15
		}
		return k
	}
	for len(prog) > 0 {
		switch op := next(); {
		case op < 96:
			m.get(key())
		case op < 232:
			k := key()
			res := cachedResult{dropped: next()&1 == 1}
			for n := next() % 5; n > 0; n-- {
				res.writes = append(res.writes, fieldWrite{id: packet.FieldID(next()), value: next()})
			}
			// Mostly sub-millisecond steps with an occasional long gap, so
			// an insert limit both rejects and refills.
			step := int64(next()) * 1000
			if step > 250_000 {
				step *= 4000
			}
			m.put(k, res, step)
		default:
			m.invalidate()
		}
	}
}

// TestFlowCacheMatchesReference replays seeded random operation streams
// on both caches for every budget from 0 (unbounded) to 64, with and
// without an insert limit.
func TestFlowCacheMatchesReference(t *testing.T) {
	for budget := 0; budget <= 64; budget++ {
		for _, limit := range []float64{0, 50, 5000} {
			t.Run(fmt.Sprintf("budget=%d/limit=%v", budget, limit), func(t *testing.T) {
				rng := stats.NewRNG(uint64(budget)*31 + uint64(limit) + 1)
				prog := make([]byte, 6000)
				for i := range prog {
					prog[i] = byte(rng.Uint64())
				}
				newCacheModel(t, budget, limit).run(prog)
			})
		}
	}
}

// A result handed out by get must survive the node being rewritten.
func TestFlowCacheGetDoesNotAliasNode(t *testing.T) {
	fc := newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: 1}, nil)
	now := time.Unix(0, 1)
	fc.put([]uint64{1}, cachedResult{writes: []fieldWrite{{id: 3, value: 7}}}, now)
	r, ok := fc.get([]uint64{1}, nil)
	fc.put([]uint64{1}, cachedResult{writes: []fieldWrite{{id: 4, value: 8}}}, now) // in place
	fc.put([]uint64{2}, cachedResult{writes: []fieldWrite{{id: 5, value: 9}}}, now) // evicts, reuses the node
	if !ok || len(r.writes) != 1 || r.writes[0] != (fieldWrite{id: 3, value: 7}) {
		t.Fatalf("result changed under the caller: %+v", r)
	}
}

// FuzzFlowCacheModel lets the fuzzer write the operation stream. Seed
// corpus lives in testdata/fuzz/FuzzFlowCacheModel.
func FuzzFlowCacheModel(f *testing.F) {
	f.Add(uint8(2), uint16(0), []byte{100, 0, 1, 0, 1, 3, 9, 10, 0, 0, 1, 255}) // put, get, invalidate
	f.Fuzz(func(t *testing.T, budget uint8, limit uint16, prog []byte) {
		newCacheModel(t, int(budget%65), float64(limit)).run(prog)
	})
}
