package opt

import (
	"fmt"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// Differential test: Pipeleon's transformations must preserve program
// semantics (§3.2: "transform the code into more efficient implementations
// while preserving the program semantics"). For randomly synthesized
// programs and profiles, we search and apply a plan, then run thousands of
// packets through the ORIGINAL and OPTIMIZED programs on two emulators and
// demand identical forwarding behaviour: same drop verdict and same final
// header/metadata contents. Caches are exercised both cold (first packet
// of a flow takes the miss path) and warm (later packets take the hit
// path), so the equivalence covers cached fast paths too.

// observableFields are the header fields compared after processing.
var observableFields = []string{
	"ipv4.srcAddr", "ipv4.dstAddr", "ipv4.ttl", "ipv4.tos", "ipv4.proto",
	"tcp.sport", "tcp.dport", "eth.dstMac",
}

// snapshotPacket captures the observable state of a processed packet.
func snapshotPacket(p *packet.Packet) map[string]uint64 {
	out := map[string]uint64{}
	for _, f := range observableFields {
		v := p.GetID(packet.FieldIDFor(f))
		out[f] = v
	}
	for k, v := range p.MetaMap() {
		out[k] = v
	}
	return out
}

func diffSnapshots(a, b map[string]uint64) string {
	for k, va := range a {
		if vb, ok := b[k]; !ok || vb != va {
			return fmt.Sprintf("%s: %d vs %d", k, va, b[k])
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok && b[k] != 0 {
			return fmt.Sprintf("%s: missing vs %d", k, b[k])
		}
	}
	return ""
}

func TestOptimizedProgramsForwardIdentically(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial-%d", trial), func(t *testing.T) {
			seed := uint64(1000 + trial*977)
			cat := synth.Category(trial % 4)
			prog := synth.Program(synth.ProgramSpec{
				Pipelets: 4 + trial%8,
				AvgLen:   1.5 + float64(trial%3),
				Category: cat,
				Seed:     seed,
			})
			prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})
			cfg := DefaultConfig()
			cfg.TopKFrac = 1
			cfg.CacheInsertLimit = 0
			res, rw, err := coldSession(t, prog, pm, cfg).SearchAndApply(prof)
			if err != nil {
				t.Fatalf("search: %v", err)
			}
			if rw == nil {
				t.Skipf("no plan found (gain %v)", res.Gain)
			}

			origNIC := testNIC(t, prog, pm)
			optNIC := testNIC(t, rw.Program, pm)

			// Few flows, repeated: every flow traverses the optimized
			// program cold once (miss path) and then warm (hit path).
			gen := trafficgen.New(seed+2, 0)
			gen.AddFlows(hitFlowsFor(prog, seed+3, 40)...)
			pkts := gen.Batch(2000)
			for i, pkt := range pkts {
				a := pkt.Clone()
				b := pkt.Clone()
				ra := origNIC.Process(a)
				rb := optNIC.Process(b)
				if ra.Dropped != rb.Dropped {
					t.Fatalf("packet %d (flow %+v): drop verdict differs: orig=%v opt=%v\nplan: %v",
						i, pkt.Flow(), ra.Dropped, rb.Dropped, res.Plan)
				}
				if ra.Dropped {
					continue // dropped packets have no forwarding state
				}
				if d := diffSnapshots(snapshotPacket(a), snapshotPacket(b)); d != "" {
					t.Fatalf("packet %d: state differs (%s)\nplan: %v", i, d, res.Plan)
				}
			}
		})
	}
}

// hitFlowsFor builds flows whose field values hit installed entries often,
// so both hit and miss actions execute.
func hitFlowsFor(prog *p4ir.Program, seed uint64, count int) []trafficgen.Flow {
	// Pull candidate values from entries (exact keys only — enough to
	// exercise hit paths; LPM/ternary hit via masks anyway).
	var vals []uint64
	var fields []string
	names := prog.NodeNames()
	for _, n := range names {
		tbl, ok := prog.Tables[n]
		if !ok {
			continue
		}
		for _, e := range tbl.Entries {
			for ki, mv := range e.Match {
				if ki < len(tbl.Keys) {
					vals = append(vals, mv.Value)
					fields = append(fields, tbl.Keys[ki].Field)
				}
			}
		}
	}
	flows := trafficgen.UniformFlows(seed, count)
	if len(vals) == 0 {
		return flows
	}
	for i := range flows {
		j := (i * 7) % len(vals)
		switch fields[j] {
		case "ipv4.srcAddr":
			flows[i].Src = uint32(vals[j])
		case "ipv4.dstAddr":
			flows[i].Dst = uint32(vals[j])
		case "tcp.sport":
			flows[i].SPort = uint16(vals[j])
		case "tcp.dport":
			flows[i].DPort = uint16(vals[j])
		default:
			if flows[i].Fields == nil {
				flows[i].Fields = map[string]uint64{}
			}
			flows[i].Fields[fields[j]] = vals[j]
		}
	}
	return flows
}

// TestOptimizedProgramsNoSlower: beyond semantics, the emulated mean
// latency of the optimized layout (after cache warm-up) must not regress —
// the plan was chosen because the model says it is faster, and the
// emulator agrees modulo cold caches.
func TestOptimizedProgramsNoSlower(t *testing.T) {
	pm := costmodel.EmulatedNIC()
	regressions := 0
	checked := 0
	for trial := 0; trial < 8; trial++ {
		seed := uint64(5000 + trial*3331)
		cat := synth.Category(trial % 4)
		prog := synth.Program(synth.ProgramSpec{
			Pipelets: 5 + trial%6, AvgLen: 2, Category: cat, Seed: seed,
		})
		prof := synth.SynthesizeProfile(prog, synth.ProfileSpec{Seed: seed + 1, Category: cat})
		cfg := DefaultConfig()
		cfg.TopKFrac = 1
		cfg.CacheInsertLimit = 0
		_, rw, err := coldSession(t, prog, pm, cfg).SearchAndApply(prof)
		if err != nil {
			t.Fatal(err)
		}
		if rw == nil {
			continue
		}
		origNIC := testNIC(t, prog, pm)
		optNIC := testNIC(t, rw.Program, pm)
		gen := trafficgen.New(seed+2, 0)
		gen.AddFlows(hitFlowsFor(prog, seed+3, 30)...)
		gen.SetSkew(1.0)
		optNIC.Measure(gen.Batch(1500)) // warm caches
		mo := origNIC.Measure(gen.Batch(1500))
		mp := optNIC.Measure(gen.Batch(1500))
		checked++
		if mp.MeanLatencyNs > mo.MeanLatencyNs*1.05 {
			regressions++
			t.Logf("trial %d (%v): optimized %.1f ns vs original %.1f ns", trial, cat,
				mp.MeanLatencyNs, mo.MeanLatencyNs)
		}
	}
	if checked == 0 {
		t.Skip("no plans produced")
	}
	if regressions > checked/4 {
		t.Errorf("%d/%d optimized programs measurably slower than originals", regressions, checked)
	}
}
