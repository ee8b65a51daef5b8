package target_test

import (
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/trafficgen"
)

// Closing a profiling window loses no count: with traffic measured
// concurrently, as nicd's traffic loop does, every packet of an unsampled
// one-table NIC is counted in exactly one window.
func TestProfileWindowsConserveCounts(t *testing.T) {
	prog, err := p4ir.ChainTables("one", []p4ir.TableSpec{{
		Name:          "t",
		Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
	}})
	if err != nil {
		t.Fatal(err)
	}
	tgt := newLocalTarget(t, prog)
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.UniformFlows(2, 64)...)
	measured := make(chan uint64, 1)
	go func() {
		var n uint64
		for i := 0; i < 400; i++ {
			m, err := tgt.Measure(gen.Batch(32))
			if err != nil {
				t.Error(err)
			}
			n += uint64(m.Packets)
		}
		measured <- n
	}()
	var counted uint64
	closeWindow := func() {
		p, err := tgt.Profile(true)
		if err != nil {
			t.Fatal(err)
		}
		counted += p.TableTotal("t")
	}
	for {
		select {
		case n := <-measured:
			closeWindow()
			if counted != n {
				t.Fatalf("windows counted %d packets, %d were measured", counted, n)
			}
			return
		default:
			closeWindow()
		}
	}
}
