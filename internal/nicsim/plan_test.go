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
// through one-field exact, LPM and ternary tables — mask groups appearing
// and disappearing, the exact table growing from one slot page into a
// paged group and emptying again — under a model that charges the live
// groups and one that pins LPM and ternary m. After every operation each
// table node must be bound to the table the NIC holds, field for field as
// a fresh bind of it, and the NIC must process an adversarial packet set as
// a NIC built afresh from its program does.
func TestPlanNodeFollowsStore(t *testing.T) {
	for _, pm := range []costmodel.Params{testParams(), costmodel.EmulatedNIC()} {
		t.Run(pm.Name, func(t *testing.T) { planNodeFollowsStore(t, pm) })
	}
}

func planNodeFollowsStore(t *testing.T, pm costmodel.Params) {
	table := func(name, field string, kind p4ir.MatchKind, next string) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name: name, Next: next,
			Keys: []p4ir.Key{{Field: field, Kind: kind, Width: packet.FieldWidth(field)}},
			Actions: []*p4ir.Action{
				p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "$0")),
				p4ir.NewAction("deny", p4ir.Prim("drop")),
				p4ir.NoopAction("miss"),
			},
			DefaultAction: "miss",
		}
	}
	prog, err := p4ir.ChainTables("bound", []p4ir.TableSpec{
		table("exact", "ipv4.dstAddr", p4ir.MatchExact, "lpm"),
		table("lpm", "ipv4.srcAddr", p4ir.MatchLPM, "ternary"),
		table("ternary", "tcp.dport", p4ir.MatchTernary, ""),
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
		}
		e.Match = []p4ir.MatchValue{mv}
		return e
	}
	// probes is the adversarial packet set: every key field set to an
	// installed entry's value, the same with low bits flipped, or a random
	// word — hits in every group, misses beside them.
	probes := func() []*packet.Packet {
		word := func(name string) uint64 {
			entries := nic.Program().Tables[name].Entries
			switch k := rng.Intn(3); {
			case k == 2 || len(entries) == 0:
				return rng.Uint64()
			default:
				return entries[rng.Intn(len(entries))].Match[0].Value ^ uint64(k*rng.Intn(256))
			}
		}
		out := make([]*packet.Packet, 48)
		for i := range out {
			out[i] = pkt(uint32(word("lpm")), uint32(word("exact")), 80, uint16(word("ternary")))
		}
		return out
	}
	paged := false // the exact table was seen in one paged group
	check := func(when string) {
		t.Helper()
		pl := nic.plan.Load()
		for name, rt := range nic.tables {
			nd := &pl.nodes[pl.ids[name]]
			cp := *rt
			want := execNode{probe: nd.probe}
			want.bind(&cp)
			if nd.rt != rt || !sameBinding(nd, &want) {
				t.Fatalf("%s: node %q is not bound to the table the NIC holds", when, name)
			}
			paged = paged || name == "exact" && !nd.bound && len(rt.groups) == 1
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
			name := []string{"exact", "lpm", "ternary"}[rng.Intn(3)]
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
	for len(nic.Program().Tables["exact"].Entries) < 200 {
		insert("exact") // past half of one slot page: the group goes paged
	}
	swapped := nic.Program().Clone()
	lpm := swapped.Tables["lpm"]
	lpm.Entries = lpm.Entries[:len(lpm.Entries)/2]
	if err := nic.Swap(swapped); err != nil {
		t.Fatal(err)
	}
	check("Swap")
	for len(nic.Program().Tables["exact"].Entries) > 0 {
		remove("exact", false) // down to no group at all
	}
	mixed(120)
	if !paged {
		t.Fatal("vacuous: the exact table never went paged")
	}
}

// sameBinding reports whether two nodes hold the same bound fields, views
// pointing at the same slot pages.
func sameBinding(a, b *execNode) bool {
	sameView := func(x, y groupView) bool {
		return x.mask0 == y.mask0 && x.shift == y.shift && len(x.flat) == len(y.flat) &&
			(len(x.flat) == 0 || &x.flat[0] == &y.flat[0])
	}
	return a.oneWord == b.oneWord && a.bound == b.bound && a.ternary == b.ternary &&
		a.fid == b.fid && a.kmask == b.kmask && a.charge == b.charge && a.defaultAct == b.defaultAct &&
		slices.EqualFunc(a.views, b.views, sameView)
}
