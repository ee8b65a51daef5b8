package nicsim

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
)

// cacheModel drives the slab flow cache the way the walk does — get, and
// on a miss the fill — and the reference by get and put, side by side, and
// fails on the first operation whose outcome or CacheStats differ.
type cacheModel struct {
	t   *testing.T
	fc  *flowCache
	ref *refFlowCache
	now int64 // virtual clock, ns since the epoch
	ops int
}

func newCacheModel(t *testing.T, budget int, limit float64) *cacheModel {
	spec := p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: budget, InsertLimit: limit}
	return &cacheModel{t: t, fc: newFlowCache(spec), ref: newRefFlowCache(spec, nil)}
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

// visit is one cache visit of the walk: a hit's result must be the
// reference's; a miss fills res, which the walk computed meanwhile, with
// the clock advanced by step.
func (m *cacheModel) visit(key []uint64, res cachedResult, step int64) {
	m.t.Helper()
	id, h := m.fc.get(key)
	want, wantOK := m.ref.get(refKey(key))
	if id >= 0 {
		ids, vals, dropped := m.fc.result(id)
		got := cachedResult{dropped: dropped}
		for i := range ids {
			got.writes = append(got.writes, fieldWrite{ids[i], vals[i]})
		}
		if !wantOK || !sameResult(got, want) {
			m.t.Fatalf("op %d get(%x) = %+v, reference %+v %v", m.ops+1, key, got, want, wantOK)
		}
		m.check("hit")
		return
	}
	if wantOK {
		m.t.Fatalf("op %d get(%x) missed, reference hit %+v", m.ops+1, key, want)
	}
	m.check("miss")
	m.now += step
	got := m.fc.fill(key, h, res.writes, res.dropped, m.now)
	if want := m.ref.put(refKey(key), res, time.Unix(0, m.now)); got != want {
		m.t.Fatalf("op %d fill(%x) = %v, reference %v", m.ops+1, key, got, want)
	}
	m.check("fill")
}

// getOrFill is the walk's use of a cache outside the model: get, and on a
// miss the fill of writes at virtual time now. It reports whether a fill
// went in.
func getOrFill(fc *flowCache, key []uint64, writes []fieldWrite, now int64) bool {
	id, h := fc.get(key)
	return id < 0 && fc.fill(key, h, writes, false, now)
}

func (m *cacheModel) invalidate() {
	m.t.Helper()
	m.fc.invalidate()
	m.ref.invalidate()
	m.check("invalidate")
}

// run interprets prog as an operation stream: one opcode byte, then the
// operands the opcode takes. Keys come from a small space so that hits
// and evictions both occur; key lengths vary so that keys that are
// prefixes of one another meet in one cache.
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
			m.visit(k, res, step)
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

// TestTokenBucketMatchesTimeBucket feeds the virtual-nanosecond bucket and
// the reference's time.Time bucket one seeded clock: every decision agrees,
// and so does every token count, bit for bit.
func TestTokenBucketMatchesTimeBucket(t *testing.T) {
	for _, rate := range []float64{0, 1, 50, 5000, 1e6} {
		rng := stats.NewRNG(uint64(rate) + 7)
		tb, ref := tokenBucket{rate: rate, burst: rate, tokens: rate}, newRefTokenBucket(rate)
		var now int64
		for i := range 20000 {
			// Mostly sub-millisecond steps; now and then none, or seconds.
			switch r := rng.Uint64(); r % 8 {
			case 0:
			case 1:
				now += int64(r >> 3 % 10_000_000_000)
			default:
				now += int64(r >> 3 % 1_000_000)
			}
			got, want := tb.allow(now), ref.allow(time.Unix(0, now))
			if got != want || math.Float64bits(tb.tokens) != math.Float64bits(ref.tokens) {
				t.Fatalf("rate %v, step %d at %d ns: allow %v tokens %v, reference %v %v", rate, i, now, got, tb.tokens, want, ref.tokens)
			}
		}
	}
}

// FuzzFlowCacheModel lets the fuzzer write the operation stream. Seed
// corpus lives in testdata/fuzz/FuzzFlowCacheModel.
func FuzzFlowCacheModel(f *testing.F) {
	f.Add(uint8(2), uint16(0), []byte{100, 0, 1, 0, 1, 3, 9, 10, 0, 0, 1, 255}) // miss and fill, hit, invalidate
	f.Fuzz(func(t *testing.T, budget uint8, limit uint16, prog []byte) {
		newCacheModel(t, int(budget%65), float64(limit)).run(prog)
	})
}
