// Package trafficgen synthesizes packet workloads for the emulator — the
// role TRex and trafgen play in the paper's testbed (§5.1: "We generate
// traffic workloads at line speed using TRex and trafgen. All traffic
// workloads use the packet size of 512 Bytes.").
//
// A Generator holds a set of weighted flows and samples packets from them,
// optionally with Zipf locality (a few hot flows carrying most packets),
// which is what drives realistic cache hit rates in nicsim. Helpers build
// the flow populations the evaluation needs: value cross products with
// controlled per-field cardinality, and drop-rate-targeted populations
// where a chosen fraction of traffic matches a table's dropping entries.
package trafficgen

import (
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
)

// DefaultPacketBytes is the paper's fixed packet size.
const DefaultPacketBytes = 512

// Flow is one traffic flow: a 5-tuple plus optional extra field overrides
// applied to each generated packet.
type Flow struct {
	Src, Dst     uint32
	SPort, DPort uint16
	Proto        uint8
	// Fields overrides arbitrary packet fields (e.g. "ipv4.tos") after
	// the 5-tuple is set.
	Fields map[string]uint64
	// Weight biases sampling when no Zipf skew is set (default 1).
	Weight float64
}

// Generator samples packets from a flow population.
type Generator struct {
	rng         *stats.RNG
	flows       []Flow
	zipf        *stats.Zipf
	skew        float64
	cum         []float64 // weight CDF when skew == 0
	packetBytes int
}

// New returns a generator with the given seed and packet size
// (0 = DefaultPacketBytes).
func New(seed uint64, packetBytes int) *Generator {
	if packetBytes <= 0 {
		packetBytes = DefaultPacketBytes
	}
	return &Generator{rng: stats.NewRNG(seed), packetBytes: packetBytes}
}

// AddFlows appends flows to the population.
func (g *Generator) AddFlows(flows ...Flow) {
	g.flows = append(g.flows, flows...)
	g.zipf = nil
	g.cum = nil
}

// SetSkew enables Zipf locality with exponent s over the flow ranks
// (0 = uniform / weight-proportional).
func (g *Generator) SetSkew(s float64) {
	g.skew = s
	g.zipf = nil
}

func (g *Generator) prepare() {
	if g.skew > 0 {
		if g.zipf == nil {
			g.zipf = stats.NewZipf(g.rng, len(g.flows), g.skew)
		}
		return
	}
	if g.cum == nil {
		g.cum = make([]float64, len(g.flows))
		total := 0.0
		for i, f := range g.flows {
			w := f.Weight
			if w <= 0 {
				w = 1
			}
			total += w
			g.cum[i] = total
		}
		for i := range g.cum {
			g.cum[i] /= total
		}
	}
}

// nextFlow samples the flow the next packet belongs to.
func (g *Generator) nextFlow() Flow {
	if len(g.flows) == 0 {
		return Flow{Proto: packet.ProtoTCP}
	}
	g.prepare()
	var idx int
	if g.skew > 0 {
		idx = g.zipf.Sample()
	} else {
		u := g.rng.Float64()
		lo, hi := 0, len(g.cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if g.cum[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		idx = lo
	}
	return g.flows[idx]
}

// Split derives n independent child generators over the same flow
// population. A Generator is single-threaded (its RNG and sampling tables
// mutate on every packet), so concurrent producers each take one child:
// children share an immutable snapshot of the flows but own forked RNG
// state and lazily rebuilt sampling structures, so they never touch the
// parent's (or each other's) mutable state. Flows added to the parent
// after the split are not seen by the children.
func (g *Generator) Split(n int) []*Generator {
	if n < 1 {
		n = 1
	}
	flows := append([]Flow(nil), g.flows...)
	out := make([]*Generator, n)
	for i := range out {
		out[i] = &Generator{
			rng:         g.rng.Fork(),
			flows:       flows,
			skew:        g.skew,
			packetBytes: g.packetBytes,
		}
	}
	return out
}

// Batch samples n packets.
func (g *Generator) Batch(n int) []*packet.Packet {
	out := make([]*packet.Packet, n)
	g.BatchInto(out)
	return out
}

// BatchInto samples len(dst) packets in place, allocating only for nil
// slots — so a reused slice amortizes to zero allocations per batch.
func (g *Generator) BatchInto(dst []*packet.Packet) {
	for i := range dst {
		if dst[i] == nil {
			dst[i] = &packet.Packet{}
		}
		g.buildInto(g.nextFlow(), dst[i])
	}
}

// buildInto overwrites p with a fresh packet for flow f.
func (g *Generator) buildInto(f Flow, p *packet.Packet) {
	proto := f.Proto
	if proto == 0 {
		proto = packet.ProtoTCP
	}
	*p = packet.Packet{
		Eth:     packet.Ethernet{Type: packet.EtherTypeIPv4},
		IP:      packet.IPv4{TTL: 64, Protocol: proto, SrcAddr: f.Src, DstAddr: f.Dst},
		HasIPv4: true,
		WireLen: g.packetBytes,
	}
	switch proto {
	case packet.ProtoUDP:
		p.HasUDP = true
		p.UDP.SrcPort, p.UDP.DstPort = f.SPort, f.DPort
	default:
		p.HasTCP = true
		p.TCP.SrcPort, p.TCP.DstPort = f.SPort, f.DPort
	}
	for field, v := range f.Fields {
		_ = p.Set(field, v)
	}
}

// CrossProductFlows builds `count` flows whose listed fields cycle through
// the given per-field cardinalities — the population that exposes the
// cache cross-product problem (§3.2.2, Figure 9c's "40000 different
// flows" with distinct match keys per table).
//
// fields maps field name -> number of distinct values. Values are small
// integers offset per field so different fields never collide.
func CrossProductFlows(seed uint64, count int, fields map[string]int) []Flow {
	rng := stats.NewRNG(seed)
	names := make([]string, 0, len(fields))
	for f := range fields {
		names = append(names, f)
	}
	// Sort for determinism.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	flows := make([]Flow, count)
	for i := range flows {
		f := Flow{
			Src:   0x0a000000 | uint32(rng.Intn(1<<16)),
			Dst:   0x0b000000 | uint32(rng.Intn(1<<16)),
			SPort: uint16(1024 + rng.Intn(60000)),
			DPort: uint16(1 + rng.Intn(1024)),
			Proto: packet.ProtoTCP,
		}
		for fi, name := range names {
			card := fields[name]
			if card < 1 {
				card = 1
			}
			v := uint64(rng.Intn(card)) + uint64(fi+1)*1000
			switch name {
			case "ipv4.srcAddr":
				f.Src = uint32(v)
			case "ipv4.dstAddr":
				f.Dst = uint32(v)
			case "tcp.sport":
				f.SPort = uint16(v)
			case "tcp.dport":
				f.DPort = uint16(v)
			default:
				if f.Fields == nil {
					f.Fields = map[string]uint64{}
				}
				f.Fields[name] = v
			}
		}
		flows[i] = f
	}
	return flows
}

// DropTargetedFlows builds a population where dropFrac of the flows carry
// field == dropValue (so a table dropping on that value drops that
// fraction of uniform traffic); the rest carry distinct non-matching
// values. Used by the reordering experiments to dial "Drop 25/50/75%".
func DropTargetedFlows(seed uint64, count int, field string, dropValue uint64, dropFrac float64) []Flow {
	rng := stats.NewRNG(seed)
	flows := make([]Flow, count)
	nDrop := int(float64(count)*dropFrac + 0.5)
	for i := range flows {
		f := Flow{
			Src:   0x0a000000 | uint32(rng.Intn(1<<20)),
			Dst:   0x0b000000 | uint32(rng.Intn(1<<20)),
			SPort: uint16(1024 + rng.Intn(60000)),
			DPort: uint16(1 + rng.Intn(60000)),
			Proto: packet.ProtoTCP,
		}
		v := dropValue
		if i >= nDrop {
			v = dropValue + 1 + uint64(rng.Intn(1<<20))
		}
		setField(&f, field, v)
		flows[i] = f
	}
	// Shuffle so drop flows interleave.
	rng.Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows
}

func setField(f *Flow, field string, v uint64) {
	switch field {
	case "ipv4.srcAddr":
		f.Src = uint32(v)
	case "ipv4.dstAddr":
		f.Dst = uint32(v)
	case "tcp.sport":
		f.SPort = uint16(v)
	case "tcp.dport":
		f.DPort = uint16(v)
	default:
		if f.Fields == nil {
			f.Fields = map[string]uint64{}
		}
		f.Fields[field] = v
	}
}

// UniformFlows builds count fully random distinct-ish flows.
func UniformFlows(seed uint64, count int) []Flow {
	rng := stats.NewRNG(seed)
	flows := make([]Flow, count)
	for i := range flows {
		flows[i] = Flow{
			Src:   uint32(rng.Uint64()),
			Dst:   uint32(rng.Uint64()),
			SPort: uint16(1024 + rng.Intn(60000)),
			DPort: uint16(1 + rng.Intn(60000)),
			Proto: packet.ProtoTCP,
		}
	}
	return flows
}
