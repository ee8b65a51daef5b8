package nicsim

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// Measure is pinned to the simplest thing that could compute a
// Measurement: a Process call per cloned packet, in order, aggregated
// here. Measure walks a flow's first packets and replays the rest from
// the plan's trace memo; its finish — noise, key and flow set inserts —
// runs on a helper beside the walk, so the oracle catches any of it that
// depends on when or where it runs, or on whether a packet was walked or
// replayed. The configurations are stateful (flow caches of searched plans,
// the vendor cache, cache-fill costs on the virtual clock), and the NIC
// pair is measured batch after batch, so state carried from one call to
// the next counts too.

// measureWindow is the oracle's collector window of several batches: the
// DASH workloads reset their collector every eight Measure calls, a
// managed device's guard after its samples.
const measureWindow = 4

// measureBatches are the batch sizes the oracle walks one after another:
// empty, one packet, around a burst, one chunk and one chunk + 1, around
// the shortest batch the helper takes part in, and one with a ragged tail.
var measureBatches = []int{
	0, 1, BurstSize - 1, BurstSize, BurstSize + 1, finishChunkPkts, finishChunkPkts + 1,
	finishMinPkts - 1, finishMinPkts, finishMinPkts + finishChunkPkts + 17,
}

// processMeasure is the oracle: Measure's aggregates computed from
// per-packet Process calls on clones of pkts.
func processMeasure(n *NIC, pkts []*packet.Packet) Measurement {
	if len(pkts) == 0 {
		return Measurement{}
	}
	lat := make([]float64, len(pkts))
	var drops, migrations, vhits, counters, wireBytes int
	for i, p := range pkts {
		r := n.Process(p.Clone())
		lat[i] = r.LatencyNs
		if r.Dropped {
			drops++
		}
		if r.VendorCacheHit {
			vhits++
		}
		migrations += r.Migrations
		counters += r.CounterUpdates
		wl := p.WireLen
		if wl == 0 {
			wl = 512
		}
		wireBytes += wl
	}
	var sum float64
	for _, l := range lat {
		sum += l
	}
	k := float64(len(pkts))
	m := Measurement{
		Packets:            len(pkts),
		MeanLatencyNs:      sum / k,
		DropRate:           float64(drops) / k,
		MeanMigrations:     float64(migrations) / k,
		VendorHitRate:      float64(vhits) / k,
		MeanCounterUpdates: float64(counters) / k,
	}
	sort.Float64s(lat)
	m.P99LatencyNs = lat[int(0.99*float64(len(lat)-1))]
	m.ThroughputGbps = n.Params().ThroughputGbps(m.MeanLatencyNs, wireBytes/len(pkts))
	return m
}

// sameMeasurement reports whether every field of a and b is bit-equal.
func sameMeasurement(a, b Measurement) bool {
	bits := func(m Measurement) [8]uint64 {
		return [8]uint64{
			uint64(m.Packets), math.Float64bits(m.MeanLatencyNs), math.Float64bits(m.P99LatencyNs),
			math.Float64bits(m.ThroughputGbps), math.Float64bits(m.DropRate), math.Float64bits(m.MeanMigrations),
			math.Float64bits(m.VendorHitRate), math.Float64bits(m.MeanCounterUpdates),
		}
	}
	return bits(a) == bits(b)
}

// twoProcs makes sure the helper has a processor to run on, whatever the
// machine, and returns the restore.
func twoProcs() func() {
	prev := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(max(prev, 2))
	return func() { runtime.GOMAXPROCS(prev) }
}

// measureMatchesProcess builds two NICs alike — mk returns one with its
// collector — and walks the batch sizes on both: Measure on one, the
// Process oracle on the other. After every batch the Measurement, the
// profile snapshot (counters, KeyCardinality and FlowCardinality), the
// packet counters, every cache's stats and the virtual clock must agree
// exactly; after every window'th batch both collectors start a new window,
// and after every batch between (when not nil) runs on each NIC alike.
// Within a window the memo replays records that earlier calls made, after
// their caches, token buckets and clock have moved on; in a new window a
// sampled replay of a record made in the old one notes its keys and flow
// itself (a renewal), or walks when its keys are not the packet's own.
func measureMatchesProcess(t *testing.T, name string, mk func() (*NIC, *profile.Collector), pkts []*packet.Packet,
	sizes []int, window int, between func(batch int, n *NIC)) memoUse {
	t.Helper()
	got, gotCol := mk()
	want, wantCol := mk()
	var use memoUse
	at := 0
	for i, size := range sizes {
		batch := pkts[at : at+size]
		at += size
		m := got.plan.Load().memo
		var r0, p0, n0, fresh int
		if m != nil {
			r0, p0, n0, fresh = m.replays, m.probes, m.renewals, freshKeys(m, batch)
		}
		gm, wm := got.Measure(batch), processMeasure(want, batch)
		if m != nil && m.probes >= p0 {
			r := m.replays - r0
			use.replays, use.probes = use.replays+r, use.probes+m.probes-p0
			use.carried += max(0, r-fresh)
		}
		if m != nil {
			use.renewals += m.renewals - n0
		}
		if !sameMeasurement(gm, wm) {
			t.Fatalf("%s, batch of %d: Measure %+v, per-packet Process %+v", name, size, gm, wm)
		}
		if gp, wp := gotCol.Snapshot(), wantCol.Snapshot(); !reflect.DeepEqual(gp, wp) {
			t.Fatalf("%s, batch of %d: snapshots differ:\nMeasure: %+v\nProcess: %+v", name, size, gp, wp)
		}
		gProc, gDrop := measured(gm)
		wProc, wDrop := measured(wm)
		if gProc != wProc || gDrop != wDrop {
			t.Fatalf("%s, batch of %d: counters (%d,%d), per-packet Process (%d,%d)", name, size, gProc, gDrop, wProc, wDrop)
		}
		if gs, ws := got.CacheStatsAll(), want.CacheStatsAll(); !reflect.DeepEqual(gs, ws) {
			t.Fatalf("%s, batch of %d: cache stats differ:\nMeasure: %+v\nProcess: %+v", name, size, gs, ws)
		}
		if gv, wv := got.vnow.Load(), want.vnow.Load(); gv != wv {
			t.Fatalf("%s, batch of %d: virtual clock %d, per-packet Process %d", name, size, gv, wv)
		}
		if (i+1)%window == 0 {
			gotCol.Reset()
			wantCol.Reset()
		}
		if between != nil {
			between(i, got)
			between(i, want)
		}
	}
	use.memo = got.plan.Load().memo
	return use
}

// memoUse is what a run of the oracle measured of the memo: of the packets
// it probed the memo for (over the batches no probation ended in), how
// many it replayed, and at least how many of those replayed a record an
// earlier Measure call made; how many replays renewed a record of an
// earlier collector window; and the Measure NIC's memo at the end.
type memoUse struct {
	replays, probes, carried, renewals int
	memo                               *traceMemo
}

// freshKeys bounds the replays a Measure of batch can make from records it
// makes itself: a key's first packet in the call has none yet, so it is
// the probed packets less their distinct keys. The keys are taken sampled
// (the bit is the only key word that tells sampling apart), which can only
// merge keys, so the bound holds at any sampling rate.
func freshKeys(m *traceMemo, batch []*packet.Packet) int {
	seen := map[string]bool{}
	probed := 0
	var buf []uint64
	for _, p := range batch {
		if p.HasMeta() {
			continue
		}
		probed++
		buf = m.key(p, true, buf)
		seen[fmt.Sprint(buf)] = true
	}
	return probed - len(seen)
}

func batchTotal(sizes []int) int {
	total := 0
	for _, s := range sizes {
		total += s
	}
	return total
}

// TestMeasureMatchesProcess sweeps the optimizer's 120-seed corpus with the
// searched plan swapped in wherever the search finds one (most plans carry
// flow caches), the vendor cache on for a third of the seeds, noise,
// instrumentation and a cache-fill cost on every seed.
func TestMeasureMatchesProcess(t *testing.T) {
	defer twoProcs()()
	cached, carried, renewals := 0, 0, 0
	for i := 0; i < swapCorpus; i++ {
		if testing.Short() && i%4 != 0 || raceEnabled && i%6 != 0 {
			continue
		}
		orig, spec, pm := swapCase(i)
		plan := searched(t, orig, pm, spec)
		for _, tbl := range plan.Tables {
			if spec, ok := tbl.CacheMeta(); ok && !spec.Prepopulated {
				cached++
				break
			}
		}
		mk := func() (*NIC, *profile.Collector) {
			col := profile.NewCollector()
			nic, err := New(orig.Clone(), Config{
				Params: pm, Collector: col, Instrument: true,
				Seed: uint64(i) + 11, NoiseStdDev: 0.05, CacheFillCostNs: 500,
				VendorCache: i%3 == 0, VendorCacheBudget: 64,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := nic.Swap(plan); err != nil {
				t.Fatal(err)
			}
			return nic, col
		}
		gen := trafficgen.New(uint64(i)+5, 0)
		gen.AddFlows(trafficgen.UniformFlows(uint64(i)+6, 96)...)
		gen.SetSkew(0.8)
		pkts := gen.Batch(batchTotal(measureBatches))
		for _, window := range []int{1, measureWindow} {
			use := measureMatchesProcess(t, fmt.Sprintf("case %d, window %d", i, window), mk, pkts, measureBatches, window, nil)
			carried += use.carried
			renewals += use.renewals
		}
	}
	if cached == 0 {
		t.Fatal("vacuous: no searched plan of the corpus has a flow cache")
	}
	if carried == 0 {
		t.Fatal("vacuous: no replay of a record an earlier Measure call made")
	}
	if renewals == 0 {
		t.Fatal("vacuous: no replay of a record of an earlier collector window")
	}
	t.Logf("%d plans with a runtime flow cache; at least %d replays of records of earlier calls, %d of earlier windows",
		cached, carried, renewals)
}

// TestMeasureMatchesProcessSynth110 runs the oracle on the root package's
// synth110Deployed, rebuilt here: the 110-table program measured for one
// window, the plan searched from that profile deployed, the collector
// reset — every per-packet store on the path.
func TestMeasureMatchesProcessSynth110(t *testing.T) {
	defer twoProcs()()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	gen := trafficgen.New(4, trafficgen.DefaultPacketBytes)
	gen.AddFlows(trafficgen.UniformFlows(8, 128)...)
	gen.SetSkew(0.9)
	pkts := gen.Batch(4096)
	var plan *p4ir.Program
	mk := func() (*NIC, *profile.Collector) {
		col := profile.NewCollector()
		nic, err := New(prog.Clone(), Config{
			Params: costmodel.BlueField2(), Collector: col, Instrument: true,
			Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500,
		})
		if err != nil {
			t.Fatal(err)
		}
		nic.Measure(pkts)
		if plan == nil {
			s, err := opt.NewSession(prog, costmodel.BlueField2(), opt.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			_, rw, err := s.SearchAndApply(col.Snapshot())
			if err != nil || rw == nil {
				t.Fatalf("the search found no plan for the 110-table program (%v)", err)
			}
			plan = rw.Program
		}
		if err := nic.Swap(plan); err != nil {
			t.Fatal(err)
		}
		if len(nic.CacheStatsAll()) == 0 {
			t.Fatal("the deployed plan has no flow cache")
		}
		col.Reset()
		return nic, col
	}
	for _, window := range []int{1, measureWindow} {
		use := measureMatchesProcess(t, fmt.Sprintf("synth110, window %d", window), mk, pkts, measureBatches, window, nil)
		t.Logf("window %d: %d of %d probed packets replayed, at least %d from records of earlier calls, %d of earlier windows",
			window, use.replays, use.probes, use.carried, use.renewals)
		if window > 1 && use.carried == 0 {
			t.Error("vacuous: no replay of a record an earlier Measure call made")
		}
		if use.renewals == 0 {
			t.Error("vacuous: no replay of a record of an earlier collector window")
		}
	}
}

// replayBatches are the batch sizes of the replay oracle: a packet, a
// burst short of one, up to a window of 4 096, around the chunk and the
// helper's minimum — repeated, so that every kind of batch meets every
// operation between them.
var replayBatches = func() []int {
	var sizes []int
	for range 3 {
		sizes = append(sizes, 1, BurstSize-1, 128, finishChunkPkts+1, finishMinPkts, 4096, finishMinPkts+17)
	}
	return sizes
}()

// TestMeasureMatchesProcessReplays runs the oracle where the trace memo does
// most of the work: batches of 96 flows, so that most packets replay, on a
// searched plan with flow caches placed over three tiers (a third of the
// tables on the NIC CPU and a third off-path, so walks cross by DMA and
// advance the virtual clock), with and without the vendor cache in front —
// at a budget under the flow count, so records meet evicted and refilled
// entries — at sampling 1 and 1 024. Between batches an entry goes in,
// the same entry goes out, or the plan is swapped for the original program
// and back: each publishes a fresh memo, and so does the collector's new
// window for the keys a record logged.
func TestMeasureMatchesProcessReplays(t *testing.T) {
	defer twoProcs()()
	pm := costmodel.BlueField2()
	orig := synth.Program(synth.ProgramSpec{Pipelets: 8, AvgLen: 2, Category: synth.Mixed, Seed: 41})
	plan := searched(t, orig, pm, synth.ProfileSpec{Seed: 42, Category: synth.Mixed})
	tiers := map[string]int{}
	names := append(tableNames(orig), tableNames(plan)...)
	for i, name := range names {
		tiers[name] = i % 3
	}
	orig, plan = placed(orig, tiers), placed(plan, tiers)
	gen := trafficgen.New(43, 0)
	gen.AddFlows(trafficgen.UniformFlows(44, 96)...)
	gen.SetSkew(0.9)
	pkts := gen.Batch(batchTotal(replayBatches))

	// The entry the operations insert and delete: into the first table of
	// the original program keyed on one header field, matching the first
	// packet, so that its flow walks another way while it is in.
	var table string
	var entry p4ir.Entry
	for _, name := range tableNames(orig) {
		tbl := orig.Tables[name]
		if len(tbl.Keys) != 1 || tbl.Keys[0].Kind != p4ir.MatchExact || len(tbl.Actions) == 0 {
			continue
		}
		if id := packet.FieldIDFor(tbl.Keys[0].Field); id != packet.FieldInvalid && !strings.HasPrefix(tbl.Keys[0].Field, "meta.") {
			table = name
			entry = p4ir.Entry{Match: []p4ir.MatchValue{{Value: pkts[0].GetID(id) & tbl.Keys[0].FullMask()}}, Action: tbl.Actions[0].Name, Args: []string{"7", "9"}}
			break
		}
	}
	if table == "" {
		t.Fatal("no table of the program takes the entry")
	}
	between := func(i int, n *NIC) {
		var err error
		switch i % 4 {
		case 0:
			err = n.InsertEntry(table, entry)
		case 1:
			err = n.DeleteEntry(table, entry.Match)
		case 2:
			err = n.Swap(orig)
		default:
			err = n.Swap(plan)
		}
		if err != nil {
			t.Fatalf("after batch %d: %v", i, err)
		}
	}

	cached := false
	for _, vendor := range []bool{false, true} {
		for _, every := range []uint64{1, 1024} {
			mk := func() (*NIC, *profile.Collector) {
				col := profile.NewCollector()
				col.SetSampling(every)
				nic, err := New(orig.Clone(), Config{
					Params: pm, Collector: col, Instrument: true,
					Seed: 45, NoiseStdDev: 0.05, CacheFillCostNs: 500,
					VendorCache: vendor, VendorCacheBudget: 48,
				})
				if err != nil {
					t.Fatal(err)
				}
				if err := nic.Swap(plan); err != nil {
					t.Fatal(err)
				}
				if !vendor && len(nic.CacheStatsAll()) > 0 {
					cached = true
				}
				return nic, col
			}
			name := fmt.Sprintf("vendor %v, sampling %d", vendor, every)
			use := measureMatchesProcess(t, name, mk, pkts, replayBatches, 1, between)
			if 2*use.replays < use.probes {
				t.Errorf("%s: %d of %d probed packets replayed; the memo must carry most of them", name, use.replays, use.probes)
			}
			t.Logf("%s: %d of %d probed packets replayed", name, use.replays, use.probes)
		}
	}
	if !cached {
		t.Fatal("vacuous: the searched plan has no runtime flow cache")
	}
}

// TestMeasureWalksPacketsWithMetadata: the memo keys on header fields, so
// a packet that arrives carrying metadata — here the field a table matches
// on — is walked, not replayed from the record of its flow's other
// packets.
func TestMeasureWalksPacketsWithMetadata(t *testing.T) {
	prog, err := p4ir.ChainTables("meta", []p4ir.TableSpec{
		exactTable("tag", "meta.tag", "fwd", p4ir.Entry{Match: []p4ir.MatchValue{{Value: 5}}, Action: "hit_act"}),
		exactTable("fwd", "ipv4.dstAddr", ""),
	})
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*packet.Packet, 512)
	for i := range pkts {
		pkts[i] = pkt(1, 2, 3, 4)
		if i%3 == 0 {
			if err := pkts[i].Set("meta.tag", 5); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk := func() (*NIC, *profile.Collector) {
		col := profile.NewCollector()
		nic, err := New(prog.Clone(), Config{Params: testParams(), Collector: col, Instrument: true})
		if err != nil {
			t.Fatal(err)
		}
		return nic, col
	}
	if use := measureMatchesProcess(t, "metadata", mk, pkts, []int{64, 448}, 1, nil); use.replays == 0 {
		t.Fatal("vacuous: no packet replayed")
	}
}

// TestMeasureRenewsOnlyInputKeys: in a new collector window a replay notes
// its record's table keys as it gathers them from the packet, which is only
// right for keys no earlier action wrote. Here rw rewrites ipv4.tos, or
// sets meta.rw, for four of eight destinations, and the next table keys on
// what it wrote: the records of those flows must walk again in a new
// window, the others renew, and the snapshots, KeyCardinality included,
// must match the per-packet loop either way.
func TestMeasureRenewsOnlyInputKeys(t *testing.T) {
	for _, field := range []string{"ipv4.tos", "meta.rw"} {
		prog, err := p4ir.ChainTables("rewrite", []p4ir.TableSpec{
			{
				Name: "rw", Keys: []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
				Actions: []*p4ir.Action{
					p4ir.NewAction("set", p4ir.Prim("modify_field", field, "5")),
					p4ir.NoopAction("keep"),
				},
				DefaultAction: "keep",
				Entries:       []p4ir.Entry{e("set", 1), e("set", 2), e("set", 3), e("set", 4)},
			},
			exactTable("rekeyed", field, "", e("hit_act", 5)),
		})
		if err != nil {
			t.Fatal(err)
		}
		// Every destination with three tos values, the rewritten one among
		// them, twenty packets each, in a shuffled order. The rewriting
		// destinations come with tos values no other flow has, so a key
		// gathered from such a packet shows in KeyCardinality.
		var pkts []*packet.Packet
		for rep := 0; rep < 20; rep++ {
			for dst := uint32(1); dst <= 8; dst++ {
				toses := []uint64{0, 5, 9}
				if dst <= 4 {
					toses = []uint64{5, 10, 11}
				}
				for _, tos := range toses {
					p := pkt(7, dst, 1000, 80)
					if err := p.Set("ipv4.tos", tos); err != nil {
						t.Fatal(err)
					}
					pkts = append(pkts, p)
				}
			}
		}
		rng := stats.NewRNG(71)
		for i := len(pkts) - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			pkts[i], pkts[j] = pkts[j], pkts[i]
		}
		mk := func() (*NIC, *profile.Collector) {
			col := profile.NewCollector()
			nic, err := New(prog.Clone(), Config{Params: testParams(), Collector: col, Instrument: true})
			if err != nil {
				t.Fatal(err)
			}
			return nic, col
		}
		for _, window := range []int{1, 2} {
			use := measureMatchesProcess(t, fmt.Sprintf("%s, window %d", field, window), mk, pkts, []int{96, 96, 96, 96, 96}, window, nil)
			written, input := recordsByKeys(use.memo)
			t.Logf("%s, window %d: %d of %d probed packets replayed, %d renewed; %d sampled records keyed on input fields, %d not",
				field, window, use.replays, use.probes, use.renewals, input, written)
			if use.renewals == 0 || written == 0 || input == 0 {
				t.Errorf("%s, window %d: vacuous", field, window)
			}
		}
	}
}

// recordsByKeys counts m's sampled records whose keys a replay may gather
// from the packet, and those whose keys it may not.
func recordsByKeys(m *traceMemo) (written, input int) {
	for _, v := range m.records.slots {
		if o := int(v) - 1; v != 0 && m.arena[o+recKey]&sampledBit != 0 {
			if m.arena[o+recShape]&recRegathers != 0 {
				input++
			} else {
				written++
			}
		}
	}
	return written, input
}

// TestMeasureMemoBounded measures traffic that keeps the memo admitting
// and dropping records, with entry operations handing it on twice every
// handOff calls: always-new flows with a new collector window every hundred calls
// or every call (each replay then renews its record), and four mixes of
// 1 500 flows taking turns every second call with a window per call, more
// flows than a memo holds. The live heap must stay flat (a slope under 64
// bytes a call, where a record kept per flow is hundreds) and the memo
// inside its cap. The hand-off period is fixed, not a share of the calls:
// the memo needs that many calls of new flows to fill, so the run thinned
// to 1 000 calls under -race or -short fills and empties it as well.
func TestMeasureMemoBounded(t *testing.T) {
	const handOff = 200
	calls := 10_000
	if testing.Short() || raceEnabled {
		calls = 1_000
	}
	pm := costmodel.BlueField2()
	orig := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 51})
	plan := searched(t, orig, pm, synth.ProfileSpec{Seed: 52, Category: synth.Mixed})
	var table string
	for _, name := range tableNames(plan) {
		if tbl := plan.Tables[name]; len(tbl.Keys) == 1 && tbl.Keys[0].Kind == p4ir.MatchExact && len(tbl.Actions) > 0 {
			table = name
			break
		}
	}
	if table == "" {
		t.Fatal("no exact table to write to")
	}
	heap := func() float64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	newFlows := func(pkts []*packet.Packet, i int) {
		gen := trafficgen.New(uint64(i)+54, 0)
		gen.AddFlows(trafficgen.UniformFlows(uint64(i)<<8+55, 8)...)
		gen.BatchInto(pkts)
	}
	var mixes []*trafficgen.Generator
	for k := range 4 {
		gen := trafficgen.New(uint64(k)+56, 0)
		gen.AddFlows(trafficgen.UniformFlows(uint64(k)+57, 800)...)
		gen.SetSkew(0.9)
		mixes = append(mixes, gen)
	}
	rotating := func(pkts []*packet.Packet, i int) { mixes[i/2%len(mixes)].BatchInto(pkts) }
	for _, tc := range []struct {
		name   string
		pkts   int
		draw   func(pkts []*packet.Packet, i int)
		window int
	}{
		{"new flows, window of 100 calls", 64, newFlows, 100},
		{"new flows, window of 1 call", 64, newFlows, 1},
		{"rotating mixes, window of 1 call", 512, rotating, 1},
	} {
		col := profile.NewCollector()
		nic, err := New(plan, Config{Params: pm, Collector: col, Instrument: true, Seed: 53, NoiseStdDev: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		pkts := make([]*packet.Packet, tc.pkts)
		var samples []float64
		most, clears := 0, 0
		for i := 0; i < calls; i++ {
			tc.draw(pkts, i)
			m := nic.plan.Load().memo
			before := m.records.n
			if got := nic.Measure(pkts); got.Packets != len(pkts) {
				t.Fatalf("%s, call %d: measured %d packets", tc.name, i, got.Packets)
			}
			if m.records.n < before {
				clears++
			}
			most = max(most, m.records.n)
			if cap(m.arena) > memoArenaWords || len(m.records.slots) > 2*memoMaxRecords || len(m.trace.slots) > 2*memoMaxRecords ||
				64*len(m.door) > memoDoorBits {
				t.Fatalf("%s, call %d: memo past its cap: %d arena words, %d record and %d trace slots, %d door words",
					tc.name, i, cap(m.arena), len(m.records.slots), len(m.trace.slots), len(m.door))
			}
			if i%handOff == handOff-1 { // one entry in and out: two hand-offs
				e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(i) & plan.Tables[table].Keys[0].FullMask()}}, Action: plan.Tables[table].Actions[0].Name}
				if err := nic.InsertEntry(table, e); err != nil {
					t.Fatal(err)
				}
				if err := nic.DeleteEntry(table, e.Match); err != nil {
					t.Fatal(err)
				}
			}
			if i%tc.window == tc.window-1 {
				col.Reset()
			}
			if (i+1)%(calls/10) == 0 {
				samples = append(samples, heap())
			}
		}
		if nic.plan.Load().memo.off {
			t.Fatalf("%s: vacuous: the memo went off", tc.name)
		}
		if clears == 0 {
			t.Errorf("%s: vacuous: the memo never filled (%d records at most)", tc.name, most)
		}
		if perCall := heapSlope(samples[1:], calls/10); perCall > 64 {
			t.Errorf("%s: live heap grows %.1f bytes per Measure (samples %v)", tc.name, perCall, samples)
		} else {
			t.Logf("%s: %d calls, live heap slope %.2f bytes a call, %d records at most, %d calls emptied the memo", tc.name, calls, perCall, most, clears)
		}
	}
}

// TestMeasureRacesEntryOps runs two Measure callers on one NIC beside a
// writer inserting and deleting entries, on a plan with flow caches (the
// cache lock held per burst) and on one without (the memo's own lock):
// under the race detector, every hand-off of the memo and every burst that
// finds it held is checked.
func TestMeasureRacesEntryOps(t *testing.T) {
	pm := costmodel.BlueField2()
	orig := synth.Program(synth.ProgramSpec{Pipelets: 6, AvgLen: 2, Category: synth.Mixed, Seed: 61})
	plan := searched(t, orig, pm, synth.ProfileSpec{Seed: 62, Category: synth.Mixed})
	gen := trafficgen.New(63, 0)
	gen.AddFlows(trafficgen.UniformFlows(64, 64)...)
	pkts := gen.Batch(1024)
	rounds := 40
	if raceEnabled {
		rounds = 10
	}
	for _, prog := range []*p4ir.Program{orig, plan} {
		col := profile.NewCollector()
		nic, err := New(prog, Config{Params: pm, Collector: col, Instrument: true, Seed: 65, NoiseStdDev: 0.05, CacheFillCostNs: 500})
		if err != nil {
			t.Fatal(err)
		}
		var table string
		for _, name := range tableNames(prog) {
			if tbl := prog.Tables[name]; len(tbl.Keys) == 1 && tbl.Keys[0].Kind == p4ir.MatchExact && len(tbl.Actions) > 0 {
				table = name
				break
			}
		}
		var wg sync.WaitGroup
		var counted atomic.Uint64
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					m := nic.Measure(pkts)
					if m.Packets != len(pkts) {
						t.Errorf("measured %d packets of %d", m.Packets, len(pkts))
					}
					processed, _ := measured(m)
					counted.Add(processed)
				}
			}()
		}
		for r := 0; r < 4*rounds; r++ {
			e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(r)}}, Action: prog.Tables[table].Actions[0].Name}
			if err := nic.InsertEntry(table, e); err != nil {
				t.Fatal(err)
			}
			if err := nic.DeleteEntry(table, e.Match); err != nil {
				t.Fatal(err)
			}
			if r%8 == 7 {
				col.Reset()
			}
		}
		wg.Wait()
		if processed := counted.Load(); processed != uint64(2*rounds*len(pkts)) {
			t.Errorf("%d packets counted, %d measured", processed, 2*rounds*len(pkts))
		}
	}
}

// TestMeasureLeavesNoGoroutine: the finish stage's helper is joined inside
// every Measure, and what it recycles stays bounded. Mixed batch sizes
// (empty, below and above the helper's minimum), an instrumented noisy NIC with a
// vendor cache beside an un-instrumented noise-free one, with a Swap and a
// Collector.Reset between calls.
func TestMeasureLeavesNoGoroutine(t *testing.T) {
	defer twoProcs()()
	calls := 10_000
	if testing.Short() || raceEnabled {
		calls = 1_000
	}
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 2, Category: synth.Mixed, Seed: 31})
	plan := searched(t, prog, costmodel.BlueField2(), synth.ProfileSpec{Seed: 32, Category: synth.Mixed})
	col := profile.NewCollector()
	noisy, err := New(prog, Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		Seed: 3, NoiseStdDev: 0.05, VendorCache: true, VendorCacheBudget: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := New(prog, Config{Params: costmodel.BlueField2()})
	if err != nil {
		t.Fatal(err)
	}
	gen := trafficgen.New(33, 0)
	gen.AddFlows(trafficgen.UniformFlows(34, 512)...)
	pkts := gen.Batch(finishMinPkts + 2*finishChunkPkts + 5)
	sizes := []int{0, 1, finishChunkPkts + 1, len(pkts), BurstSize + 3, finishMinPkts}

	heap := func() float64 {
		// Two collections: the first moves what sync.Pools hold to their
		// victim caches, the second frees it, so pooled buffers (dropped at
		// random under -race) do not count.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	}
	base := runtime.NumGoroutine()
	var samples []float64 // live heap at every tenth of the calls
	for i := 0; i < calls; i++ {
		nic := noisy
		if i%5 == 4 {
			nic = plain
		}
		size := sizes[i%len(sizes)]
		if m := nic.Measure(pkts[:size]); m.Packets != size {
			t.Fatalf("call %d: measured %d packets, want %d", i, m.Packets, size)
		}
		// A joined goroutine may still be on its way out when Measure
		// returns; one that leaked never leaves.
		for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("call %d (batch of %d): %d goroutines, %d before the first call", i, size, runtime.NumGoroutine(), base)
			}
		}
		// Every hundred calls: to the plan and back, and a new profiling
		// window; so the heap is sampled in the same state each time.
		switch i % 100 {
		case 24, 74:
			p := plan
			if i%100 == 74 {
				p = prog
			}
			if err := noisy.Swap(p); err != nil {
				t.Fatal(err)
			}
		case 99:
			col.Reset()
		}
		if (i+1)%(calls/10) == 0 {
			samples = append(samples, heap())
		}
	}
	// The first tenth fills caches and pools; from then on the live heap
	// must stay flat: a least-squares slope under 64 bytes a call, where a
	// leaked helper or finisher is kilobytes.
	xs := samples[1:]
	var mx, my float64
	for j, y := range xs {
		mx += float64(j)
		my += y
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for j, y := range xs {
		sxy += (float64(j) - mx) * (y - my)
		sxx += (float64(j) - mx) * (float64(j) - mx)
	}
	perCall := sxy / sxx / float64(calls/10)
	if perCall > 64 {
		t.Errorf("live heap grows %.1f bytes per Measure (samples %v)", perCall, samples)
	}
	t.Logf("%d calls, live heap slope %.2f bytes a call", calls, perCall)
}

// heapSlope is the least-squares slope of heap samples taken every calls
// calls, in bytes a call.
func heapSlope(xs []float64, calls int) float64 {
	var mx, my float64
	for j, y := range xs {
		mx += float64(j)
		my += y
	}
	mx /= float64(len(xs))
	my /= float64(len(xs))
	var sxy, sxx float64
	for j, y := range xs {
		sxy += (float64(j) - mx) * (y - my)
		sxx += (float64(j) - mx) * (float64(j) - mx)
	}
	return sxy / sxx / float64(calls)
}

// tableNames returns the program's table names, sorted.
func tableNames(prog *p4ir.Program) []string {
	names := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
