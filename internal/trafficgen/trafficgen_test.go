package trafficgen

import (
	"math"
	"testing"

	"pipeleon/internal/packet"
)

func TestGeneratorDeterminism(t *testing.T) {
	mk := func() []*packet.Packet {
		g := New(42, 0)
		g.AddFlows(UniformFlows(7, 100)...)
		return g.Batch(50)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i].Flow() != b[i].Flow() {
			t.Fatal("same-seed generators diverged")
		}
	}
}

func TestPacketShape(t *testing.T) {
	g := New(1, 0)
	g.AddFlows(Flow{Src: 10, Dst: 20, SPort: 30, DPort: 40})
	p := g.Next()
	if !p.HasIPv4 || !p.HasTCP {
		t.Fatal("expected IPv4/TCP packet")
	}
	if p.WireLen != DefaultPacketBytes {
		t.Errorf("WireLen = %d, want %d (paper's 512B)", p.WireLen, DefaultPacketBytes)
	}
	k := p.Flow()
	if k.SrcAddr != 10 || k.DstAddr != 20 || k.SrcPort != 30 || k.DstPort != 40 {
		t.Errorf("flow = %+v", k)
	}
}

func TestUDPFlows(t *testing.T) {
	g := New(1, 0)
	g.AddFlows(Flow{Src: 1, Dst: 2, SPort: 53, DPort: 5353, Proto: packet.ProtoUDP})
	p := g.Next()
	if !p.HasUDP || p.UDP.SrcPort != 53 {
		t.Errorf("UDP flow mangled: %+v", p.UDP)
	}
}

func TestFieldOverrides(t *testing.T) {
	g := New(1, 0)
	g.AddFlows(Flow{Src: 1, Dst: 2, Fields: map[string]uint64{"ipv4.tos": 7, "meta.tenant": 3}})
	p := g.Next()
	if v, _ := p.Get("ipv4.tos"); v != 7 {
		t.Errorf("tos = %v", v)
	}
	if v, _ := p.Get("meta.tenant"); v != 3 {
		t.Errorf("meta.tenant = %v", v)
	}
}

func TestWeightedSampling(t *testing.T) {
	g := New(5, 0)
	g.AddFlows(
		Flow{Dst: 1, Weight: 9},
		Flow{Dst: 2, Weight: 1},
	)
	counts := map[uint32]int{}
	for i := 0; i < 10000; i++ {
		counts[g.Next().IP.DstAddr]++
	}
	frac := float64(counts[1]) / 10000
	if math.Abs(frac-0.9) > 0.03 {
		t.Errorf("weighted flow frac = %v, want ~0.9", frac)
	}
}

func TestZipfSkewConcentratesFlows(t *testing.T) {
	g := New(5, 0)
	g.AddFlows(UniformFlows(9, 1000)...)
	g.SetSkew(1.1)
	counts := map[packet.FlowKey]int{}
	for i := 0; i < 20000; i++ {
		counts[g.Next().Flow()]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/20000 < 0.05 {
		t.Errorf("hottest flow carries %v, expected heavy concentration", float64(max)/20000)
	}
	if len(counts) < 100 {
		t.Errorf("only %d distinct flows seen", len(counts))
	}
}

func TestDropTargetedFlows(t *testing.T) {
	flows := DropTargetedFlows(3, 1000, "tcp.dport", 23, 0.75)
	nDrop := 0
	for _, f := range flows {
		if f.DPort == 23 {
			nDrop++
		}
	}
	if math.Abs(float64(nDrop)/1000-0.75) > 0.001 {
		t.Errorf("drop-targeted fraction = %v, want 0.75", float64(nDrop)/1000)
	}
	// Uniform sampling then yields ~75% matching packets.
	g := New(4, 0)
	g.AddFlows(flows...)
	matched := 0
	for i := 0; i < 5000; i++ {
		if g.Next().TCP.DstPort == 23 {
			matched++
		}
	}
	if math.Abs(float64(matched)/5000-0.75) > 0.03 {
		t.Errorf("sampled drop traffic = %v", float64(matched)/5000)
	}
}

func TestCrossProductFlowsCardinality(t *testing.T) {
	flows := CrossProductFlows(6, 5000, map[string]int{
		"ipv4.srcAddr": 14,
		"tcp.dport":    14,
	})
	srcs := map[uint32]bool{}
	dports := map[uint16]bool{}
	for _, f := range flows {
		srcs[f.Src] = true
		dports[f.DPort] = true
	}
	if len(srcs) > 14 {
		t.Errorf("src cardinality %d exceeds requested 14", len(srcs))
	}
	if len(srcs) < 10 {
		t.Errorf("src cardinality %d too small", len(srcs))
	}
	if len(dports) > 14 {
		t.Errorf("dport cardinality %d exceeds requested 14", len(dports))
	}
}

func TestEmptyGeneratorStillProduces(t *testing.T) {
	g := New(1, 256)
	p := g.Next()
	if p == nil || p.WireLen != 256 {
		t.Error("empty generator should emit a default packet with configured size")
	}
}

func TestSplitChildrenAreIndependent(t *testing.T) {
	g := New(42, 0)
	g.AddFlows(UniformFlows(7, 200)...)
	g.SetSkew(0.9)

	// Deterministic: the same parent split the same way yields the same
	// child streams.
	g2 := New(42, 0)
	g2.AddFlows(UniformFlows(7, 200)...)
	g2.SetSkew(0.9)
	a, b := g.Split(3), g2.Split(3)
	for i := range a {
		pa, pb := a[i].Batch(20), b[i].Batch(20)
		for j := range pa {
			if pa[j].Flow() != pb[j].Flow() {
				t.Fatalf("child %d diverged at packet %d", i, j)
			}
		}
	}

	// Children don't see flows added to the parent after the split.
	kids := g.Split(2)
	g.AddFlows(Flow{Src: 1, Dst: 2, SPort: 3, DPort: 4})
	if n := len(kids[0].flows); n != 200 {
		t.Fatalf("child sees %d flows, want snapshot of 200", n)
	}
}

func TestSplitChildrenRaceClean(t *testing.T) {
	g := New(7, 0)
	g.AddFlows(DropTargetedFlows(2, 500, "tcp.dport", 23, 0.5)...)
	g.SetSkew(1.1)
	kids := g.Split(4)
	done := make(chan struct{})
	for _, k := range kids {
		go func(k *Generator) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				if k.Next() == nil {
					t.Error("nil packet")
					return
				}
			}
		}(k)
	}
	// The parent keeps drawing concurrently with its children.
	for i := 0; i < 200; i++ {
		g.Next()
	}
	for range kids {
		<-done
	}
}
