package nicsim

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
)

// TestPlanNodeFollowsStore drives seeded entry operations and a Swap
// through one-field exact, LPM and ternary tables and a two-field exact
// one — mask groups appearing and disappearing, both exact tables growing
// from one slot page into a paged group and emptying again — under a model
// that charges the live groups and one that pins LPM and ternary m. After
// every operation each table node must be bound to the table the NIC
// holds, field for field as a fresh bind of it, and the NIC must process an
// adversarial packet set as a NIC built afresh from its program does.
func TestPlanNodeFollowsStore(t *testing.T) {
	for _, pm := range []costmodel.Params{testParams(), costmodel.EmulatedNIC()} {
		t.Run(pm.Name, func(t *testing.T) { planNodeFollowsStore(t, pm) })
	}
}

func planNodeFollowsStore(t *testing.T, pm costmodel.Params) {
	table := func(name string, kind p4ir.MatchKind, next string, fields ...string) p4ir.TableSpec {
		var keys []p4ir.Key
		for _, f := range fields {
			keys = append(keys, p4ir.Key{Field: f, Kind: kind, Width: packet.FieldWidth(f)})
		}
		return p4ir.TableSpec{
			Name: name, Next: next, Keys: keys,
			Actions: []*p4ir.Action{
				p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "$0")),
				p4ir.NewAction("deny", p4ir.Prim("drop")),
				p4ir.NoopAction("miss"),
			},
			DefaultAction: "miss",
		}
	}
	prog, err := p4ir.ChainTables("bound", []p4ir.TableSpec{
		table("exact", p4ir.MatchExact, "lpm", "ipv4.dstAddr"),
		table("lpm", p4ir.MatchLPM, "ternary", "ipv4.srcAddr"),
		table("ternary", p4ir.MatchTernary, "pair", "tcp.dport"),
		table("pair", p4ir.MatchExact, "", "ipv4.dstAddr", "tcp.sport"),
	})
	if err != nil {
		t.Fatal(err)
	}
	nic, err := New(prog, Config{Params: pm})
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(41)

	// Small key spaces, so that deletes find entries and groups come and go.
	entry := func(name string, op int) p4ir.Entry {
		e := p4ir.Entry{Action: "set", Args: []string{fmt.Sprint(op)}, Priority: rng.Intn(4)}
		if rng.Intn(8) == 0 {
			e.Action, e.Args = "deny", nil
		}
		var mv p4ir.MatchValue
		switch name {
		case "exact":
			mv.Value = 0x0a000000 + uint64(rng.Intn(400))
		case "lpm":
			mv.PrefixLen = []int{8, 16, 24, 32}[rng.Intn(4)]
			mv.Value = (0x0a000000 | uint64(rng.Intn(4))<<16 | uint64(rng.Intn(4))<<8 | uint64(rng.Intn(4))) &
				(0xffffffff << (32 - mv.PrefixLen))
		case "ternary":
			mv.Mask = []uint64{0xffff, 0xff00, 0xf000, 0}[rng.Intn(4)]
			mv.Value = uint64(rng.Intn(4)*0x1111) & mv.Mask
		case "pair":
			mv.Value = 0x0a000000 + uint64(rng.Intn(40))
			e.Match = []p4ir.MatchValue{mv, {Value: uint64(rng.Intn(10))}}
			return e
		}
		e.Match = []p4ir.MatchValue{mv}
		return e
	}
	// probes is the adversarial packet set: every key field set to an
	// installed entry's value, the same with low bits flipped, or a random
	// word — hits in every group, misses beside them.
	probes := func() []*packet.Packet {
		word := func(name string, key int) uint64 {
			entries := nic.Program().Tables[name].Entries
			switch k := rng.Intn(3); {
			case k == 2 || len(entries) == 0:
				return rng.Uint64()
			default:
				return entries[rng.Intn(len(entries))].Match[key].Value ^ uint64(k*rng.Intn(256))
			}
		}
		out := make([]*packet.Packet, 48)
		for i := range out {
			dst := word([]string{"exact", "pair"}[rng.Intn(2)], 0)
			out[i] = pkt(uint32(word("lpm", 0)), uint32(dst), uint16(word("pair", 1)), uint16(word("ternary", 0)))
		}
		return out
	}
	paged := map[string]bool{} // the exact tables seen in one paged group
	check := func(when string) {
		t.Helper()
		pl := nic.plan.Load()
		for name, rt := range nic.tables {
			if !boundTo(&pl.nodes[pl.ix.ID(name)], rt) {
				t.Fatalf("%s: node %q is not bound to the table the NIC holds", when, name)
			}
			if len(rt.groups) == 1 && len(rt.groups[0].flat) == 0 {
				paged[name] = true
			}
		}
		want, err := New(nic.Program().Clone(), Config{Params: pm})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range probes() {
			gp, wp := p.Clone(), p.Clone()
			if gr, wr := nic.Process(gp), want.Process(wp); !reflect.DeepEqual(gr, wr) {
				t.Fatalf("%s, packet %d: result %+v, fresh NIC %+v", when, i, gr, wr)
			}
			if !bytes.Equal(gp.Serialize(), wp.Serialize()) || !maps.Equal(gp.MetaMap(), wp.MetaMap()) {
				t.Fatalf("%s, packet %d: packet diverged from the fresh NIC's", when, i)
			}
		}
	}

	op := 0
	insert := func(name string) {
		op++
		_ = nic.InsertEntry(name, entry(name, op))
		check(fmt.Sprintf("op %d: insert into %s", op, name))
	}
	remove := func(name string, oldest bool) {
		entries := nic.Program().Tables[name].Entries
		if len(entries) == 0 {
			insert(name)
			return
		}
		i := rng.Intn(len(entries))
		if oldest {
			i = 0 // the entry that ranked its group
		}
		op++
		_ = nic.DeleteEntry(name, slices.Clone(entries[i].Match))
		check(fmt.Sprintf("op %d: delete from %s", op, name))
	}
	modify := func(name string) {
		entries := nic.Program().Tables[name].Entries
		if len(entries) == 0 {
			insert(name)
			return
		}
		op++
		_ = nic.ModifyEntry(name, slices.Clone(entries[rng.Intn(len(entries))].Match), []string{"set", "deny"}[rng.Intn(2)], []string{fmt.Sprint(op)})
		check(fmt.Sprintf("op %d: modify in %s", op, name))
	}
	mixed := func(ops int) {
		for i := 0; i < ops; i++ {
			name := []string{"exact", "lpm", "ternary", "pair"}[rng.Intn(4)]
			switch k := rng.Intn(10); {
			case k < 5:
				insert(name)
			case k < 8:
				remove(name, k == 7)
			default:
				modify(name)
			}
		}
	}

	check("New")
	mixed(240)
	for _, name := range []string{"exact", "pair"} {
		for len(nic.Program().Tables[name].Entries) < 200 {
			insert(name) // past half of one slot page: the group goes paged
		}
	}
	swapped := nic.Program().Clone()
	lpm := swapped.Tables["lpm"]
	lpm.Entries = lpm.Entries[:len(lpm.Entries)/2]
	if err := nic.Swap(swapped); err != nil {
		t.Fatal(err)
	}
	check("Swap")
	for _, name := range []string{"exact", "pair"} {
		for len(nic.Program().Tables[name].Entries) > 0 {
			remove(name, false) // down to no group at all
		}
	}
	mixed(120)
	if !paged["exact"] || !paged["pair"] {
		t.Fatalf("vacuous: paged groups seen in %v, want exact and pair", paged)
	}
}

// freshBind returns a node of the given probe cost bound to a copy of rt's
// header, so that the views of the table a plan holds stay as that plan
// bound them.
func freshBind(rt *runtimeTable, probe float64) *execNode {
	cp := *rt
	nd := &execNode{probe: probe}
	nd.bind(&cp)
	return nd
}

// boundTo reports whether nd holds what a fresh bind of rt gives it.
func boundTo(nd *execNode, rt *runtimeTable) bool {
	return sameBinding(nd, freshBind(rt, nd.probe))
}

// sameBinding reports whether two nodes hold the same bound fields, views
// pointing at the same slot pages.
func sameBinding(a, b *execNode) bool {
	samePage := func(x, y []slot) bool { return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0]) }
	sameView := func(x, y groupView) bool {
		return x.mask0 == y.mask0 && x.shift == y.shift && x.mask == y.mask && samePage(x.flat, y.flat) &&
			slices.EqualFunc(x.pages, y.pages, samePage) && slices.Equal(x.masks, y.masks)
	}
	return a.oneWord == b.oneWord && a.fid == b.fid && a.kmask == b.kmask && a.ternary == b.ternary &&
		slices.Equal(a.fids, b.fids) && slices.Equal(a.kmasks, b.kmasks) && a.charge == b.charge &&
		a.defaultAct == b.defaultAct && slices.EqualFunc(a.views, b.views, sameView)
}
