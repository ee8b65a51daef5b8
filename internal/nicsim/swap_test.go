package nicsim

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// Swap keeps the match store of every table the incoming program leaves as
// the device has it. The oracle is the device that never had a
// predecessor: whatever a NIC ran before — the original, another plan,
// tables churned through the entry API so their install numbering has
// holes, a deploy since rolled back — once it is swapped onto a program it
// must be indistinguishable from nicsim.New of that program.

// swapCase is case i of the optimizer's 120-seed corpus (opt's
// sessionCase), and past it the 110-table program of the synth-shift
// workload.
func swapCase(i int) (*p4ir.Program, synth.ProfileSpec, costmodel.Params) {
	if i == swapCorpus {
		prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
		return prog, synth.ProfileSpec{Seed: 8, Category: synth.Mixed}, costmodel.BlueField2()
	}
	seed, cat := uint64(7000+i*131), synth.Category(i%4)
	pm := []costmodel.Params{costmodel.BlueField2(), costmodel.AgilioCX(), costmodel.EmulatedNIC()}[i%3]
	prog := synth.Program(synth.ProgramSpec{Pipelets: 3 + i%9, AvgLen: 1.5 + float64(i%3), Category: cat, Seed: seed})
	return prog, synth.ProfileSpec{Seed: seed + 1, Category: cat}, pm
}

const swapCorpus = 120

// searched returns the layout a cold search picks for orig under prof, or
// orig itself when it picks none.
func searched(t *testing.T, orig *p4ir.Program, pm costmodel.Params, spec synth.ProfileSpec) *p4ir.Program {
	t.Helper()
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	s, err := opt.NewSession(orig, pm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, rw, err := s.SearchAndApply(synth.SynthesizeProfile(orig, spec))
	if err != nil {
		t.Fatal(err)
	}
	if rw == nil {
		return orig
	}
	return rw.Program
}

// churn drives seeded inserts, modifies and deletes through the entry API
// of every NIC alike, into the tables of prog that are in all of them, and
// fails unless they all accept or all refuse each one.
func churn(t *testing.T, rng *stats.RNG, prog *p4ir.Program, ops int, nics ...*NIC) {
	t.Helper()
	var names []string
	for name, tbl := range prog.Tables {
		if _, generated := tbl.Annotations[p4ir.AnnotKind]; !generated && len(tbl.Keys) > 0 && len(tbl.Actions) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	names = slices.DeleteFunc(names, func(name string) bool {
		return slices.ContainsFunc(nics, func(n *NIC) bool { return n.prog.Tables[name] == nil })
	})
	if len(names) == 0 {
		return
	}
	for op := 0; op < ops; op++ {
		name := names[rng.Uint64()%uint64(len(names))]
		live := nics[0].prog.Tables[name]
		var apply func(n *NIC) error
		switch k := rng.Uint64() % 4; {
		case k < 2 || len(live.Entries) == 0:
			e := p4ir.Entry{Priority: int(rng.Uint64() % 3), Action: live.Actions[rng.Uint64()%uint64(len(live.Actions))].Name, Args: []string{"7", "9"}}
			for _, key := range live.Keys {
				mv := p4ir.MatchValue{Value: rng.Uint64() & key.FullMask(), PrefixLen: 8 * int(1+rng.Uint64()%4), Mask: key.PrefixMask(4 * int(1+rng.Uint64()%8))}
				if key.Kind == p4ir.MatchLPM {
					mv.Value &= key.PrefixMask(mv.PrefixLen)
				}
				e.Match = append(e.Match, mv)
			}
			apply = func(n *NIC) error { return n.InsertEntry(name, e) }
		case k == 2:
			match := slices.Clone(live.Entries[rng.Uint64()%uint64(len(live.Entries))].Match)
			action := live.Actions[rng.Uint64()%uint64(len(live.Actions))].Name
			apply = func(n *NIC) error { return n.ModifyEntry(name, match, action, []string{"3"}) }
		default:
			// The oldest entry half the time, so groups lose the entry
			// that ranked them.
			match := slices.Clone(live.Entries[(rng.Uint64()%uint64(len(live.Entries)))*(rng.Uint64()&1)].Match)
			apply = func(n *NIC) error { return n.DeleteEntry(name, match) }
		}
		first := apply(nics[0])
		for _, n := range nics[1:] {
			if err := apply(n); (err == nil) != (first == nil) {
				t.Fatalf("entry op %d on %q: %v on one device, %v on another", op, name, first, err)
			}
		}
	}
}

// sameDevice fails unless got behaves as want, a device built afresh from
// the program got was swapped onto: packet by packet, in aggregate, in
// what the caches counted, and again after the same entry operations on
// both — which find the right store only if the fork is wired to the
// table the plan and the program hold.
func sameDevice(t *testing.T, when string, rng *stats.RNG, got, want *NIC, pkts []*packet.Packet) {
	t.Helper()
	if !reflect.DeepEqual(got.prog, want.prog) {
		t.Fatalf("%s: swapped device holds a different program than the fresh one", when)
	}
	pass := func(stage string, pkts []*packet.Packet) {
		t.Helper()
		for i, p := range pkts {
			gp, wp := p.Clone(), p.Clone()
			gr, wr := got.Process(gp), want.Process(wp)
			if !slices.Equal(gr.Path, wr.Path) {
				t.Fatalf("%s, %s, packet %d: path %v, fresh device %v", when, stage, i, gr.Path, wr.Path)
			}
			if gr.Path, wr.Path = nil, nil; !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s, %s, packet %d: result %+v, fresh device %+v", when, stage, i, gr, wr)
			}
			// Headers of every packet, metadata too of every eighth: the
			// reflective walk of a 110-table program's metadata store
			// costs more than processing the packet.
			if !bytes.Equal(gp.Serialize(), wp.Serialize()) || i%8 == 0 && !reflect.DeepEqual(gp, wp) {
				t.Fatalf("%s, %s, packet %d: packet bytes diverged", when, stage, i)
			}
		}
		if gm, wm := got.Measure(pkts[:len(pkts)/4]), want.Measure(pkts[:len(pkts)/4]); gm != wm {
			t.Fatalf("%s, %s: Measure %+v, fresh device %+v", when, stage, gm, wm)
		}
		if gc, wc := got.CacheStatsAll(), want.CacheStatsAll(); !reflect.DeepEqual(gc, wc) {
			t.Fatalf("%s, %s: cache stats %+v, fresh device %+v", when, stage, gc, wc)
		}
	}
	pass("after the swap", pkts)
	churn(t, rng, got.prog, 24, got, want)
	if !reflect.DeepEqual(got.prog, want.prog) {
		t.Fatalf("%s: programs diverged under the same entry operations", when)
	}
	pl := got.plan.Load()
	for name, rt := range got.tables {
		if rt.tbl != got.prog.Tables[name] || !boundTo(&pl.nodes[pl.ix.ID(name)], rt) {
			t.Fatalf("%s: table %q: store, program and published plan disagree on the table", when, name)
		}
	}
	pass("after entry operations", pkts[:len(pkts)/4])
}

// TestProgramDigestKept: the digest a NIC keeps is the digest of the program
// it runs, asked between every two changes — swaps from the original, from
// a churned plan and back to a checkpoint (target.Local's Rollback), bulk
// entry replacement, and single entry operations interleaved with all of
// them — so a change that left the kept digest in place is caught at once.
func TestProgramDigestKept(t *testing.T) {
	for i := 0; i <= swapCorpus; i += 4 {
		orig, spec, pm := swapCase(i)
		plan := searched(t, orig, pm, spec)
		nic, err := New(orig.Clone(), Config{Params: pm})
		if err != nil {
			t.Fatal(err)
		}
		rng := stats.NewRNG(uint64(i) + 29)
		check := func(when string) {
			t.Helper()
			if got, want := nic.ProgramDigest(), nic.Program().Digest(); got != want {
				t.Fatalf("case %d, %s: kept digest %s, program's %s", i, when, got, want)
			}
		}
		ops := func(when string) {
			t.Helper()
			for op := 0; op < 6; op++ {
				churn(t, rng, nic.Program(), 1, nic)
				check(fmt.Sprintf("%s, entry op %d", when, op))
			}
		}
		check("at New")
		ops("original")
		checkpoint := nic.Program()
		for _, p := range []*p4ir.Program{plan, checkpoint} {
			if err := nic.Swap(p); err != nil {
				t.Fatal(err)
			}
			check("after a swap")
			ops("swapped")
		}
		var names []string
		for name := range nic.Program().Tables {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if e := nic.Program().Tables[name].Entries; len(e) > 1 {
				if err := nic.ReplaceEntries(name, e[:len(e)/2]); err != nil {
					t.Fatal(err)
				}
				check("after ReplaceEntries")
				break
			}
		}
		ops("replaced")
	}
}

func TestSwapIndistinguishableFromNew(t *testing.T) {
	cases := swapCorpus + 1
	if testing.Short() {
		cases = 12
	}
	kept, rebuilt := 0, 0
	for i := 0; i < cases; i++ {
		if raceEnabled && i%6 != 0 {
			continue // every sixth case, the 110-table program among them
		}
		orig, spec, pm := swapCase(i)
		planA := searched(t, orig, pm, spec)
		planB := searched(t, orig, pm, synth.ProfileSpec{Seed: spec.Seed + 999, Category: synth.Category((i + 1) % 4)})
		cfg := Config{Params: pm, Seed: 5, NoiseStdDev: 0.01, CacheFillCostNs: 500}
		gen := trafficgen.New(uint64(i)+3, 0)
		gen.AddFlows(trafficgen.UniformFlows(uint64(i)+4, 256)...)
		gen.SetSkew(0.9)
		all := gen.Batch(4096)
		// Every packet on one of the case's four comparisons, a quarter
		// on the others.
		sample := func(k int) []*packet.Packet {
			if k == i%4 {
				return all
			}
			return all[:len(all)/4]
		}
		rng := stats.NewRNG(uint64(i) + 17)
		device := func(p *p4ir.Program) *NIC {
			nic, err := New(p.Clone(), cfg)
			if err != nil {
				t.Fatalf("case %d: %v", i, err)
			}
			return nic
		}
		swap := func(nic *NIC, p *p4ir.Program) {
			t.Helper()
			before := nic.tables
			if err := nic.Swap(p); err != nil {
				t.Fatalf("case %d: swap: %v", i, err)
			}
			// The saving itself: a table the swap left alone shares its
			// groups with the store it had, any other shares none.
			for name, rt := range nic.tables {
				old := before[name]
				same := old != nil && sameStore(old.tbl, rt.tbl)
				if same && len(rt.groups) > 0 {
					kept++
				} else if !same {
					rebuilt++
				}
				if shared := old != nil && len(rt.groups) > 0 && slices.Equal(rt.groups, old.groups); shared != (same && len(rt.groups) > 0) {
					t.Fatalf("case %d: table %q: same store %v, groups shared %v", i, name, same, shared)
				}
				// ... and, kept or not, its entries are the array the swapped
				// program holds, not a second copy (live_heap_mb on the dash
				// workloads).
				if e := rt.tbl.Entries; len(e) > 0 && &e[0] != &p.Tables[name].Entries[0] {
					t.Fatalf("case %d: table %q (same store %v) holds a copy of the program's entries", i, name, same)
				}
			}
		}

		// withEntries is a plan carrying the entries dev holds: what the
		// runtime's slow path deploys after entry operations, the plan
		// re-applied to the churned original, stood in for by name.
		withEntries := func(plan *p4ir.Program, dev *NIC) *p4ir.Program {
			out := plan.Clone()
			for name, tbl := range out.Tables {
				if cur := dev.prog.Tables[name]; cur != nil && tbl.Annotations[p4ir.AnnotKind] == "" {
					tbl.Entries = make([]p4ir.Entry, len(cur.Entries))
					for i, e := range cur.Entries {
						tbl.Entries[i] = e.Clone()
					}
				}
			}
			return out
		}

		nic := device(orig)
		swap(nic, planA)
		sameDevice(t, fmt.Sprintf("case %d, original -> plan", i), rng, nic, device(planA), sample(0))

		// Another plan as predecessor, both over churned tables. No
		// traffic and no entry operation between the two swaps: a runtime
		// cache both plans have keeps its contents and counters across a
		// swap, as it did before stores were kept, and only a silent one is
		// a fresh one.
		nic = device(orig)
		churn(t, rng, orig, 40, nic)
		swap(nic, withEntries(planA, nic))
		next := withEntries(planB, nic)
		swap(nic, next)
		sameDevice(t, fmt.Sprintf("case %d, plan -> another plan", i), rng, nic, device(next), sample(1))

		// Churn, a staged plan that sees traffic and more churn, and the
		// rollback of it onto the checkpoint (target.Local's Rollback).
		nic = device(orig)
		churn(t, rng, orig, 40, nic)
		checkpoint := nic.Program()
		staged := withEntries(planA, nic)
		swap(nic, staged)
		sameDevice(t, fmt.Sprintf("case %d, churned original -> plan", i), rng, nic, device(staged), sample(2))
		swap(nic, checkpoint)
		sameDevice(t, fmt.Sprintf("case %d, after rollback", i), rng, nic, device(checkpoint), sample(3))
	}
	if kept == 0 || rebuilt == 0 {
		t.Fatalf("vacuous: %d stores kept, %d rebuilt", kept, rebuilt)
	}
	t.Logf("%d match stores kept across swaps, %d rebuilt", kept, rebuilt)
}
