package nicsim

import (
	"slices"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// BenchmarkFlowCache times the three shapes of a flow-cache probe, one
// operation per iteration, on two-word keys carrying four writes:
//
//	hit        get of a resident key (LRU refresh, writes copied out)
//	miss-fill  get that misses, then put into a cache with room
//	evict      the same with the cache at its budget, so every put
//	           evicts the least recently used entry and reuses its node
func BenchmarkFlowCache(b *testing.B) {
	const budget = 4096
	res := cachedResult{writes: []fieldWrite{{id: 300, value: 1}, {id: 301, value: 2}, {id: 302, value: 3}, {id: 303, value: 4}}}
	keys := make([][]uint64, 4*budget)
	for i := range keys {
		keys[i] = []uint64{0x0a000000 + uint64(i), uint64(i) * 0x9e3779b97f4a7c15}
	}
	now := time.Unix(0, 1)
	newCache := func(budget int) *flowCache {
		return newFlowCache(p4ir.CacheSpec{Table: "c", Kind: p4ir.KindCache, Budget: budget}, nil)
	}
	var buf []fieldWrite

	b.Run("hit", func(b *testing.B) {
		fc := newCache(budget)
		for _, k := range keys[:budget] {
			fc.put(k, res, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r, ok := fc.get(keys[i%budget], buf)
			if !ok {
				b.Fatal("resident key missed")
			}
			buf = r.writes
		}
	})
	b.Run("miss-fill", func(b *testing.B) {
		fc := newCache(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(keys) == 0 {
				fc.invalidate() // room again; the slab keeps its buffers
			}
			k := keys[i%len(keys)]
			if _, ok := fc.get(k, buf); ok {
				b.Fatal("absent key hit")
			}
			fc.put(k, res, now)
		}
	})
	b.Run("evict", func(b *testing.B) {
		fc := newCache(budget)
		for _, k := range keys[:budget] {
			fc.put(k, res, now)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A key leaves the cache budget puts after it went in, and
			// comes round again after len(keys): always a miss.
			k := keys[(budget+i)%len(keys)]
			if _, ok := fc.get(k, buf); ok {
				b.Fatal("evicted key hit")
			}
			fc.put(k, res, now)
		}
	})
}

// lookupBenchTable is a one-table program of n entries for the lookup and
// entry-operation benches: keyed on the destination address (and, for the
// two-word shape, the source port — DASH conntrack's layout), LPM over
// three prefix lengths, ternary and range over five masks.
func lookupBenchTable(kind p4ir.MatchKind, words, n int) (*p4ir.Program, []p4ir.Entry) {
	keys := []p4ir.Key{{Field: "ipv4.dstAddr", Kind: kind, Width: 32}}
	if words == 2 {
		keys = append(keys, p4ir.Key{Field: "tcp.sport", Kind: kind, Width: 16})
	}
	ts := p4ir.TableSpec{
		Name: "lookup", Keys: keys,
		Actions:       []*p4ir.Action{p4ir.NewAction("hit", p4ir.Prim("modify_field", "meta.hit", "$0")), p4ir.NoopAction("miss")},
		DefaultAction: "miss",
	}
	// n installed entries, then as many spare ones for the entry benches.
	entries := make([]p4ir.Entry, 2*n)
	for i := range entries {
		mv := p4ir.MatchValue{Value: 0x0a000000 + uint64(i)*0x101}
		e := p4ir.Entry{Action: "hit", Args: []string{"7"}}
		switch kind {
		case p4ir.MatchLPM:
			mv.PrefixLen = []int{32, 28, 24}[i%3]
			mv.Value &= keys[0].PrefixMask(mv.PrefixLen)
		case p4ir.MatchTernary, p4ir.MatchRange:
			mv.Mask = keys[0].PrefixMask(32 - 2*(i%5))
			mv.Value &= mv.Mask
			e.Priority = 10 - i%5
		}
		e.Match = []p4ir.MatchValue{mv}
		if words == 2 {
			e.Match = append(e.Match, p4ir.MatchValue{Value: uint64(i) & 0xffff, PrefixLen: 16, Mask: 0xffff})
		}
		entries[i] = e
	}
	ts.Entries = slices.Clone(entries[:n])
	prog, err := p4ir.ChainTables("lookup", []p4ir.TableSpec{ts})
	if err != nil {
		panic(err)
	}
	return prog, entries[n:]
}

// BenchmarkLookup is the per-match-kind lookup row of the datapath
// budget: one ProcessBurst packet through a single 1 024-entry table —
// key gather, probe and the hit action — with four packets in five
// hitting an entry. ternary-tiny has 20 entries, four to a mask: the
// groups that scan from slot 0 instead of hashing (tinySlots).
func BenchmarkLookup(b *testing.B) {
	for _, sh := range []struct {
		name  string
		kind  p4ir.MatchKind
		words int
		size  int
	}{
		{"exact1w", p4ir.MatchExact, 1, 1024}, {"exact2w", p4ir.MatchExact, 2, 1024},
		{"lpm", p4ir.MatchLPM, 1, 1024}, {"ternary", p4ir.MatchTernary, 1, 1024}, {"range", p4ir.MatchRange, 1, 1024},
		{"ternary-tiny", p4ir.MatchTernary, 1, 20},
	} {
		b.Run(sh.name, func(b *testing.B) {
			prog, spare := lookupBenchTable(sh.kind, sh.words, sh.size)
			installed := prog.Tables["lookup"].Entries
			nic, err := New(prog, Config{Params: testParams()})
			if err != nil {
				b.Fatal(err)
			}
			src := make([]*packet.Packet, 1024)
			for i := range src {
				e := installed[i%sh.size]
				if i%5 == 4 {
					e = spare[i%sh.size] // not installed: a miss
				}
				sport := uint16(0)
				if sh.words == 2 {
					sport = uint16(e.Match[1].Value)
				}
				src[i] = pkt(1, uint32(e.Match[0].Value), sport, 80)
			}
			var scratch [BurstSize]packet.Packet
			var burst [BurstSize]*packet.Packet
			var results [BurstSize]Result
			for i := range burst {
				burst[i] = &scratch[i]
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += BurstSize {
				n := min(BurstSize, b.N-i)
				for j := 0; j < n; j++ {
					src[(i+j)%len(src)].CloneInto(burst[j])
				}
				nic.ProcessBurst(burst[:n], results[:n])
			}
		})
	}
}

// BenchmarkEntryOp times one control-plane entry operation — an insert
// and the delete of the same entry, halved — on a table already holding
// the named number of entries: what a connection-tracking workload pays
// per flow arrival and departure.
func BenchmarkEntryOp(b *testing.B) {
	for _, sh := range []struct {
		name  string
		kind  p4ir.MatchKind
		words int
		size  int
	}{
		{"exact2w-2000", p4ir.MatchExact, 2, 2000}, {"exact2w-16000", p4ir.MatchExact, 2, 16000},
		{"ternary-512", p4ir.MatchTernary, 1, 512}, {"lpm-256", p4ir.MatchLPM, 1, 256},
	} {
		b.Run(sh.name, func(b *testing.B) {
			prog, spare := lookupBenchTable(sh.kind, sh.words, sh.size)
			nic, err := New(prog, Config{Params: testParams()})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += 2 {
				e := spare[i/2%len(spare)]
				if err := nic.InsertEntry("lookup", e); err != nil {
					b.Fatal(err)
				}
				if err := nic.DeleteEntry("lookup", e.Match); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildTable is a bulk install: ReplaceEntries of 2 000 two-word
// exact entries, the path New and Swap take per table.
func BenchmarkBuildTable(b *testing.B) {
	b.Run("2000", func(b *testing.B) {
		prog, _ := lookupBenchTable(p4ir.MatchExact, 2, 2000)
		entries := prog.Tables["lookup"].Clone().Entries
		nic, err := New(prog, Config{Params: testParams()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := nic.ReplaceEntries("lookup", entries); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSwap is one live reconfiguration of the 110-table program of
// the synth-shift workload, alternating its original layout and the one
// searched for a window of traffic (the round benches' window, in core):
// what a deploy, and the rollback of one, cost the device.
func BenchmarkSwap(b *testing.B) {
	orig := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	col := profile.NewCollector()
	nic, err := New(orig.Clone(), Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen := trafficgen.New(11, trafficgen.DefaultPacketBytes)
	gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
	gen.SetSkew(0.9)
	nic.Measure(gen.Batch(1024))
	s, err := opt.NewSession(orig, costmodel.BlueField2(), opt.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(col.Snapshot())
	if err != nil || rw == nil {
		b.Fatalf("no searched layout of the benchmark program: %v", err)
	}
	layouts := [2]*p4ir.Program{rw.Program, orig}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nic.Swap(layouts[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
