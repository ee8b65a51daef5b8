package absint

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/packet"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// checkAgreement runs pkts through a fresh emulator and asserts the
// abstract whole-program outcome contains every concrete result: nodes on
// the concrete path are abstractly reachable, a concrete drop implies
// MayDrop, and every observable field of a non-dropped packet lies inside
// the abstract egress join.
func checkAgreement(t *testing.T, res *Result, nic *nicsim.NIC, pkts []*packet.Packet) {
	t.Helper()
	for pi, pkt := range pkts {
		clearMeta(pkt)
		r := nic.Process(pkt)
		for _, node := range r.Path {
			nr := res.Nodes[node]
			if nr == nil || !nr.Reachable {
				t.Fatalf("pkt %d: concrete path visits %q, abstractly unreachable", pi, node)
			}
		}
		if r.Dropped {
			if !res.Outcome.MayDrop {
				t.Fatalf("pkt %d dropped but abstract outcome says drops are impossible", pi)
			}
			continue
		}
		if res.Outcome.Egress == nil {
			t.Fatalf("pkt %d egressed but abstract outcome has no egress state", pi)
		}
		for _, f := range packet.KnownFields() {
			c := pkt.GetID(packet.FieldIDFor(f))
			if av := res.Outcome.Egress.Get(f); !av.Contains(c) {
				t.Fatalf("pkt %d: %s = %#x outside abstract %+v", pi, f, c, av)
			}
		}
		for k, c := range pkt.MetaMap() { // keys are full "meta.x" names
			if av := res.Outcome.Egress.Get(k); !av.Contains(c) {
				t.Fatalf("pkt %d: %s = %#x outside abstract %+v", pi, k, c, av)
			}
		}
	}
}

// TestAbsintEmulatorAgreement is the interpreter's soundness property,
// swept across 120 synthesized programs (30 under -short) covering every
// category and shape: the abstract result must contain the concrete
// emulator result for every sampled packet. Run under -race in CI.
func TestAbsintEmulatorAgreement(t *testing.T) {
	trials := 120
	if testing.Short() {
		trials = 30
	}
	for trial := 0; trial < trials; trial++ {
		seed := uint64(9100 + trial*127)
		prog := synth.Program(synth.ProgramSpec{
			Pipelets:        3 + trial%6,
			AvgLen:          2 + float64(trial%3),
			Category:        synth.Category(trial % 4),
			Seed:            seed,
			EntriesPerTable: []int{0, 5, 40}[trial%3],
			DiamondOnly:     trial%5 == 0,
		})
		res, err := Analyze(prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		gen := trafficgen.New(seed, 0)
		gen.AddFlows(trafficgen.UniformFlows(seed+1, 32)...)
		checkAgreement(t, res, nic, gen.Batch(64))
	}
}

// Path-class execution must agree with the full-space analysis: for each
// class, outcomes stay contained in the whole-program join, and the union
// of feasible classes covers every concrete execution.
func TestPathClassPartition(t *testing.T) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 4, AvgLen: 3, Category: synth.Mixed, Seed: 4242})
	conds := CondNames(prog)
	if len(conds) == 0 {
		t.Skip("synth program unexpectedly branch-free")
	}
	if len(conds) > 10 {
		conds = conds[:10]
	}
	whole, err := Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := NewAnalyzer(prog).ExecClasses(conds)
	if err != nil {
		t.Fatal(err)
	}
	anyFeasible := false
	for bits, out := range outs {
		if !out.Feasible {
			continue
		}
		anyFeasible = true
		if out.MayDrop && !whole.Outcome.MayDrop {
			t.Fatalf("class %b may drop but whole program may not", bits)
		}
		if out.Egress != nil {
			for _, f := range out.Egress.Fields() {
				v := out.Egress.Get(f)
				wv := whole.Outcome.Egress.Get(f)
				if j := wv.Join(v); j != wv {
					t.Fatalf("class %b: %s = %+v escapes whole-program %+v", bits, f, v, wv)
				}
			}
		}
	}
	if !anyFeasible {
		t.Fatal("no feasible path class")
	}
}

// clearMeta drops every metadata field of p, as if it had just arrived:
// the walk of a packet writes its metadata in place.
func clearMeta(p *packet.Packet) {
	*p = packet.Packet{Eth: p.Eth, IP: p.IP, TCP: p.TCP, UDP: p.UDP, HasIPv4: p.HasIPv4, HasTCP: p.HasTCP, HasUDP: p.HasUDP, Payload: p.Payload, WireLen: p.WireLen}
}
