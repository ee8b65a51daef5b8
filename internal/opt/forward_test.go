package opt

import (
	"slices"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/trafficgen"
)

// forward writes meta.egress_port. These programs put a second reader or
// writer of that field after a table that forwards, with a drop that makes
// moving it forward look profitable. The dependency is visible only if the
// analysis reads forward the way the emulator executes it; DeepVerify, which
// would catch the wrong plan by value, stays off.

var egressKey = []p4ir.Key{{Field: "meta.egress_port", Kind: p4ir.MatchExact, Width: 16}}
var dstKey = []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}}

// portACLProgram is route (forward(3) for every packet) then port_acl,
// which drops packets leaving on port 3: a read-after-write on
// meta.egress_port. The original drops every packet.
func portACLProgram() *p4ir.Program {
	return p4ir.NewBuilder("port_acl").
		Table(p4ir.TableSpec{
			Name: "route", Keys: dstKey, Next: "port_acl",
			Actions: []*p4ir.Action{p4ir.NewAction("fwd", p4ir.Prim("forward", "3"))},
		}).
		Table(p4ir.TableSpec{
			Name: "port_acl", Keys: egressKey,
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 3}}, Action: "drop_packet"}},
			DefaultAction: "allow",
		}).
		MustBuild()
}

// wawACLProgram is route (forward(1)) then acl, which drops half the
// sources and sends the rest out port 7: a write-after-write on
// meta.egress_port. The original sends every surviving packet to port 7.
func wawACLProgram() *p4ir.Program {
	var deny []p4ir.Entry
	for _, f := range trafficgen.UniformFlows(5, 16)[:8] {
		deny = append(deny, p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(f.Src)}}, Action: "drop_packet"})
	}
	return p4ir.NewBuilder("waw_acl").
		Table(p4ir.TableSpec{
			Name: "route", Keys: dstKey, Next: "acl",
			Actions: []*p4ir.Action{p4ir.NewAction("fwd", p4ir.Prim("forward", "1"))},
		}).
		Table(p4ir.TableSpec{
			Name: "acl", Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}},
			Actions: []*p4ir.Action{
				p4ir.DropAction(),
				p4ir.NewAction("to7", p4ir.Prim("modify_field", "meta.egress_port", "7")),
			},
			Entries: deny, DefaultAction: "to7",
		}).
		MustBuild()
}

func TestForwardReadAfterWriteIsNotReordered(t *testing.T) {
	checkForwardDependencyKept(t, portACLProgram(), "route", "port_acl")
}

func TestForwardWriteAfterWriteIsNotReordered(t *testing.T) {
	checkForwardDependencyKept(t, wawACLProgram(), "route", "acl")
}

// checkForwardDependencyKept profiles prog on the emulator, searches and
// applies a plan with DeepVerify off, and requires that no option moves
// later ahead of earlier and that the original and the optimized program
// forward every packet identically.
func checkForwardDependencyKept(t *testing.T, prog *p4ir.Program, earlier, later string) {
	t.Helper()
	pm := costmodel.EmulatedNIC()
	gen := trafficgen.New(11, 0)
	gen.AddFlows(trafficgen.UniformFlows(5, 16)...)
	pkts := gen.Batch(400)

	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{Params: pm, Collector: col, Instrument: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkts {
		nic.Process(p.Clone())
	}
	cfg := DefaultConfig()
	cfg.TopKFrac = 1
	if cfg.DeepVerify {
		t.Fatal("DeepVerify is on by default: this test pins the structural proof")
	}
	res, rw, err := coldSession(t, prog, pm, cfg).SearchAndApply(col.Snapshot())
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	for _, o := range res.Plan {
		for _, order := range optionOrders(o) {
			i, j := slices.Index(order, earlier), slices.Index(order, later)
			if i >= 0 && j >= 0 && j < i {
				t.Errorf("plan %v moves %s ahead of %s across meta.egress_port", o, later, earlier)
			}
		}
	}
	if rw == nil {
		return
	}
	orig, optimized := testNIC(t, prog, pm), testNIC(t, rw.Program, pm)
	for i, pkt := range pkts {
		a, b := pkt.Clone(), pkt.Clone()
		ra, rb := orig.Process(a), optimized.Process(b)
		if ra.Dropped != rb.Dropped {
			t.Fatalf("packet %d: drop verdict differs: orig=%v opt=%v\nplan: %v", i, ra.Dropped, rb.Dropped, res.Plan)
		}
		if !ra.Dropped {
			if d := diffSnapshots(snapshotPacket(a), snapshotPacket(b)); d != "" {
				t.Fatalf("packet %d: state differs (%s)\nplan: %v", i, d, res.Plan)
			}
		}
	}
}

// optionOrders lists the table orders an option lays out, group members'
// included.
func optionOrders(o *Option) [][]string {
	out := [][]string{o.Order}
	for _, m := range o.Members {
		if m != nil {
			out = append(out, optionOrders(m)...)
		}
	}
	return out
}
