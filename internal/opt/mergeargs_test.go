package opt

import (
	"fmt"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/pipelet"
)

// A merged table runs one combined action over the members' action data
// laid end to end, so each member's "$j" must be renumbered past the data
// of the members before it — in a merged-exact cache and in an in-place
// merge alike, a missed member's default action included.
func TestMergedActionsReadTheirOwnData(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	for _, kind := range []p4ir.MatchKind{p4ir.MatchExact, p4ir.MatchTernary} {
		t.Run(kind.String(), func(t *testing.T) {
			spec := func(name, field, set string, arg string) p4ir.TableSpec {
				key := p4ir.Key{Field: field, Kind: kind, Width: 32}
				return p4ir.TableSpec{
					Name: name,
					Keys: []p4ir.Key{key},
					Actions: []*p4ir.Action{
						p4ir.NewAction(set, p4ir.Prim("modify_field", "meta."+name, "$0"), p4ir.Prim("add", "meta.sum", "meta.sum", "$1")),
						p4ir.NoopAction("pass"),
					},
					DefaultAction: set, // a miss reads no data: 0
					Entries: []p4ir.Entry{{
						Match:  []p4ir.MatchValue{{Value: 1, Mask: key.FullMask()}},
						Action: set, Args: []string{arg, arg + "0"},
					}},
				}
			}
			prog, err := p4ir.ChainTables("args", []p4ir.TableSpec{
				spec("a", "ipv4.srcAddr", "seta", "111"),
				spec("b", "ipv4.dstAddr", "setb", "222"),
			})
			if err != nil {
				t.Fatal(err)
			}
			part, err := pipelet.Form(prog, 8)
			if err != nil {
				t.Fatal(err)
			}
			p := part.Pipelets[0]
			plan := []*Option{{Kind: OptPipelet, Pipelet: p, Order: p.Tables, Segments: []Segment{{Kind: SegMerge, Len: 2}}}}
			rw, err := Apply(prog, plan, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			orig, merged := testNIC(t, prog, pm), testNIC(t, rw.Program, pm)
			for _, hit := range [][2]uint64{{1, 1}, {9, 1}, {1, 9}} {
				a, b := &packet.Packet{}, &packet.Packet{}
				for _, pk := range []*packet.Packet{a, b} {
					if pk.Set("ipv4.srcAddr", hit[0]) != nil || pk.Set("ipv4.dstAddr", hit[1]) != nil {
						t.Fatal("setting the key fields")
					}
				}
				orig.Process(a)
				merged.Process(b)
				want, got := snapshotPacket(a), snapshotPacket(b)
				if d := diffSnapshots(want, got); d != "" {
					t.Errorf("src %d dst %d: merged program differs from the original (%s)", hit[0], hit[1], d)
				}
				if hit == [2]uint64{1, 1} && fmt.Sprint(got["meta.a"], got["meta.b"], got["meta.sum"]) != "111 222 3330" {
					t.Errorf("both hit: meta.a, meta.b, meta.sum = %d %d %d, want 111 222 3330", got["meta.a"], got["meta.b"], got["meta.sum"])
				}
			}
		})
	}
}
