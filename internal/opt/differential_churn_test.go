package opt_test

import (
	"fmt"
	"testing"
	"time"

	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// churnRig is a core.Runtime over its own emulator.
type churnRig struct {
	rt  *core.Runtime
	nic *nicsim.NIC
}

func newChurnRig(t *testing.T, prog *p4ir.Program, pm costmodel.Params, cfg opt.Config) churnRig {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{Params: pm, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(prog, target.NewLocal(nic, col), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return churnRig{rt, nic}
}

// entryFor builds an entry of tbl that matches pkt exactly, whatever the
// key kinds, with a priority above every synthesized one.
func entryFor(tbl *p4ir.Table, pkt *packet.Packet, action string) p4ir.Entry {
	e := p4ir.Entry{Action: action, Priority: 1 << 20}
	for _, k := range tbl.Keys {
		v := pkt.GetID(packet.FieldIDFor(k.Field))
		e.Match = append(e.Match, p4ir.MatchValue{Value: v & k.FullMask(), PrefixLen: k.BitWidth(), Mask: k.FullMask()})
	}
	return e
}

// TestOptimizedProgramsForwardIdenticallyUnderEntryChurn is
// TestOptimizedProgramsForwardIdentically with the control plane writing
// while packets flow: two core.Runtimes hold the same program, one left on
// the original layout and one optimized, and between packets the same
// entries are inserted into and deleted from tables of the ORIGINAL
// program through both. Each entry matches live traffic, so a cache that
// is not invalidated, a merged cross product that is not regenerated, or
// an entry the API mapping drops shows as a packet forwarded differently.
func TestOptimizedProgramsForwardIdenticallyUnderEntryChurn(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	deployed := 0
	for trial := 0; trial < 12; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			seed := uint64(1000 + trial*977)
			cat := synth.Category(trial % 4)
			prog := synth.Program(synth.ProgramSpec{Pipelets: 4 + trial%8, AvgLen: 1.5 + float64(trial%3), Category: cat, Seed: seed})
			cfg := opt.DefaultConfig()
			cfg.TopKFrac = 1
			cfg.CacheInsertLimit = 0
			orig, optimized := newChurnRig(t, prog.Clone(), pm, cfg), newChurnRig(t, prog.Clone(), pm, cfg)

			gen := trafficgen.New(seed+2, 0)
			gen.AddFlows(opt.HitFlowsFor(prog, seed+3, 40)...)
			optimized.nic.Measure(gen.Batch(2000)) // the window the round optimizes for
			rep, err := optimized.rt.OptimizeOnce(time.Second)
			if err != nil {
				t.Fatalf("round: %v", err)
			}
			if !rep.Deployed {
				t.Skipf("no plan deployed (gain %v)", rep.Gain)
			}
			deployed++

			var tables []*p4ir.Table
			for _, name := range prog.NodeNames() {
				if tbl := prog.Tables[name]; tbl != nil && len(tbl.Keys) > 0 && len(tbl.Actions) > 0 {
					tables = append(tables, tbl)
				}
			}
			rng := stats.NewRNG(seed + 4)
			both := func(op string, f func(rt *core.Runtime) error) {
				t.Helper()
				ea, eb := f(orig.rt), f(optimized.rt)
				if (ea == nil) != (eb == nil) {
					t.Fatalf("%s: original layout says %v, optimized layout says %v", op, ea, eb)
				}
			}
			type installed struct {
				table string
				match []p4ir.MatchValue
			}
			var live []installed
			pkts := gen.Batch(3000)
			for i, pkt := range pkts {
				if i%40 == 20 {
					if len(live) > 0 && rng.Uint64()%2 == 0 {
						gone := live[0]
						live = live[1:]
						both("delete from "+gone.table, func(rt *core.Runtime) error { return rt.DeleteEntry(gone.table, gone.match) })
					} else {
						tbl := tables[rng.Uint64()%uint64(len(tables))]
						// The packet a few ahead, so the entry meets traffic.
						e := entryFor(tbl, pkts[(i+3)%len(pkts)], tbl.Actions[rng.Uint64()%uint64(len(tbl.Actions))].Name)
						live = append(live, installed{tbl.Name, e.Match})
						both("insert into "+tbl.Name, func(rt *core.Runtime) error { return rt.InsertEntry(tbl.Name, e) })
					}
				}
				a, b := pkt.Clone(), pkt.Clone()
				ra, rb := orig.nic.Process(a), optimized.nic.Process(b)
				if ra.Dropped != rb.Dropped {
					t.Fatalf("packet %d (flow %+v): drop verdict differs: orig=%v opt=%v\nplan: %v", i, pkt.Flow(), ra.Dropped, rb.Dropped, rep.Plan)
				}
				if ra.Dropped {
					continue
				}
				if d := opt.DiffSnapshots(opt.SnapshotPacket(a), opt.SnapshotPacket(b)); d != "" {
					t.Fatalf("packet %d: state differs (%s)\nplan: %v", i, d, rep.Plan)
				}
			}
		})
	}
	if deployed == 0 {
		t.Error("no trial deployed a plan: nothing compared an optimized layout")
	}
}
