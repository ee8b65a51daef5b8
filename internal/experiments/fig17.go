package experiments

import (
	"fmt"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/trafficgen"
)

// Figure 17 (appendix A.2): table copying on a heterogeneous ASIC/CPU
// target. The benchmark program interleaves ASIC-supported tables with
// tables whose actions only CPU cores can run; the naive partition
// migrates the packet at every boundary, and copying supported tables to
// the CPU removes migrations at the price of slower execution.

// copyBenchProgram: u1 s1 u2 s2 u3 s3 u4 s4 u5 — supported singletons
// between unsupported tables, so each copy removes two migrations.
func copyBenchProgram() *p4ir.Program {
	var specs []p4ir.TableSpec
	for i := 0; i < 4; i++ {
		u := regularTable(fmt.Sprintf("u%d", i), "ipv4.srcAddr", 2, 8, uint64(i)*2+1)
		u.Unsupported = true
		specs = append(specs, u)
		specs = append(specs, regularTable(fmt.Sprintf("s%d", i), "ipv4.dstAddr", 2, 8, uint64(i)*2+2))
	}
	last := regularTable("u4", "tcp.dport", 2, 8, 99)
	last.Unsupported = true
	specs = append(specs, last)
	prog, err := p4ir.ChainTables("copybench", specs)
	if err != nil {
		panic(err)
	}
	return prog
}

// copied returns prog with its first n supported singletons copied onto
// every tier.
func copied(prog *p4ir.Program, n int) *p4ir.Program {
	pl := opt.Placement{Copies: map[string]bool{}}
	for i := 0; i < n; i++ {
		pl.Copies[fmt.Sprintf("s%d", i)] = true
	}
	return pl.Annotate(prog)
}

// Fig17a sweeps copied-table count for three migration latencies.
func Fig17a(opts RunOpts) *Result {
	res := &Result{
		ID: "fig17a", Title: "table copying vs migration latency",
		XLabel: "# copied tables", YLabel: "emulated packet latency (ns)",
	}
	nPkts := opts.pick(4000, 800)
	for _, mig := range []float64{200, 400, 800} {
		pm := costmodel.EmulatedNIC()
		pm.MigrationLatency = mig
		var xs, ys []float64
		for copies := 0; copies <= 4; copies++ {
			nic, err := nicsim.New(copied(copyBenchProgram(), copies), nicsim.Config{
				Params: pm, Seed: opts.Seed + uint64(copies),
			})
			if err != nil {
				panic(err)
			}
			gen := trafficgen.New(opts.Seed+uint64(copies)*5+3, 0)
			gen.AddFlows(trafficgen.UniformFlows(opts.Seed+7, 200)...)
			m := nic.Measure(gen.Batch(nPkts))
			xs = append(xs, float64(copies))
			ys = append(ys, m.MeanLatencyNs)
		}
		res.AddSeries(fmt.Sprintf("migration-%.0fns", mig), xs, ys)
	}
	res.Note("copying removes two migrations per copied singleton; benefit grows with migration latency")
	return res
}

// Fig17b sweeps copied-table count for three software-traffic ratios: a
// root conditional steers only part of the traffic through the
// CPU-dependent path.
func Fig17b(opts RunOpts) *Result {
	res := &Result{
		ID: "fig17b", Title: "table copying vs software traffic ratio",
		XLabel: "# copied tables", YLabel: "emulated packet latency (ns)",
	}
	pm := costmodel.EmulatedNIC()
	nPkts := opts.pick(4000, 800)

	mkProg := func() *p4ir.Program {
		b := p4ir.NewBuilder("copyratio")
		// tos < threshold → software (heterogeneous) path, else pure
		// ASIC path.
		b.Cond("steer", "ipv4.tos < 128", "u0", "fast0", "ipv4.tos")
		var prev string
		for i := 0; i < 4; i++ {
			u := regularTable(fmt.Sprintf("u%d", i), "ipv4.srcAddr", 2, 8, uint64(i)*2+1)
			u.Unsupported = true
			s := regularTable(fmt.Sprintf("s%d", i), "ipv4.dstAddr", 2, 8, uint64(i)*2+2)
			u.Next = s.Name
			if i < 3 {
				s.Next = fmt.Sprintf("u%d", i+1)
			}
			b.Table(u)
			b.Table(s)
			prev = s.Name
		}
		_ = prev
		f0 := regularTable("fast0", "tcp.sport", 2, 8, 51)
		f0.Next = "fast1"
		f1 := regularTable("fast1", "tcp.dport", 2, 8, 52)
		b.Table(f0)
		b.Table(f1)
		b.Root("steer")
		return b.MustBuild()
	}

	for _, swFrac := range []float64{0.3, 0.5, 0.7} {
		var xs, ys []float64
		for copies := 0; copies <= 4; copies++ {
			nic, err := nicsim.New(copied(mkProg(), copies), nicsim.Config{
				Params: pm, Seed: opts.Seed + uint64(copies),
			})
			if err != nil {
				panic(err)
			}
			flows := trafficgen.UniformFlows(opts.Seed+11, 400)
			// Set tos so swFrac of flows take the software path.
			for i := range flows {
				tos := uint64(200) // fast path
				if float64(i) < swFrac*float64(len(flows)) {
					tos = 10 // software path
				}
				if flows[i].Fields == nil {
					flows[i].Fields = map[string]uint64{}
				}
				flows[i].Fields["ipv4.tos"] = tos
			}
			gen := trafficgen.New(opts.Seed+uint64(copies)*7+29, 0)
			gen.AddFlows(flows...)
			m := nic.Measure(gen.Batch(nPkts))
			xs = append(xs, float64(copies))
			ys = append(ys, m.MeanLatencyNs)
		}
		res.AddSeries(fmt.Sprintf("software-%.0f%%", swFrac*100), xs, ys)
	}
	res.Note("benefit scales with the share of traffic migrating to the software pipeline")
	return res
}
