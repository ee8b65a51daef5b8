package controlplane

import (
	"strconv"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// The RPC benches price one round trip of each bulk operation over host
// loopback against a device that runs the 110-table program of the
// synth-shift workload: a program fetch that finds nothing changed and one
// that moves the program, a deploy of a program the server has never seen
// and of one it has, a 2 000-packet measurement, and the profile window and
// cache counters a round reads after measuring — and, with no wire, that
// measurement's packet codec.

// benchDevice serves the program's device; col, when not nil, is its
// profile collector.
func benchDevice(b *testing.B, col *profile.Collector) (*Client, *p4ir.Program) {
	b.Helper()
	prog := synth.Program(synth.ProgramSpec{Pipelets: 40, AvgLen: 3, Category: synth.Mixed, Seed: 7})
	nic, err := nicsim.New(prog.Clone(), nicsim.Config{Params: costmodel.BlueField2(), Collector: col, Instrument: col != nil})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer("127.0.0.1:0", nil, nil, WithDevice(target.NewLocal(nic, col)))
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { cl.Close() })
	return cl, prog
}

func BenchmarkProgramRPCUnchanged(b *testing.B) {
	cl, _ := benchDevice(b, nil)
	_, have, err := cl.ProgramUnless(p4ir.Digest{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, _, err := cl.ProgramUnless(have); err != nil || p != nil {
			b.Fatalf("program %v, err %v: want unchanged", p, err)
		}
	}
}

func BenchmarkProgramRPCChanged(b *testing.B) {
	cl, _ := benchDevice(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, err := cl.Program(); err != nil || p == nil {
			b.Fatalf("program %v, err %v", p, err)
		}
	}
}

func BenchmarkDeployRPCFirstSight(b *testing.B) {
	cl, prog := benchDevice(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog.Name = "first-sight-" + strconv.Itoa(i) // a digest the server's lint memo has not seen
		if err := cl.Deploy(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeployRPCRepeat(b *testing.B) {
	cl, prog := benchDevice(b, nil)
	if err := cl.Deploy(prog); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cl.Deploy(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// measureBatch is the 2 000-packet batch the measure benches ship.
func measureBatch() []*packet.Packet {
	gen := trafficgen.New(3, 0)
	gen.AddFlows(trafficgen.UniformFlows(4, 500)...)
	return gen.Batch(2000)
}

func BenchmarkMeasureRPC(b *testing.B) {
	cl, _ := benchDevice(b, nil)
	batch := measureBatch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Measure(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileRPC reads the open profile window of a device that has
// processed the measure batch once: every table and action of the
// 110-table program has counts.
func BenchmarkProfileRPC(b *testing.B) {
	cl, _ := benchDevice(b, profile.NewCollector())
	if _, err := cl.Measure(measureBatch()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if p, err := cl.ProfileWindow(false); err != nil || len(p.ActionCounts) == 0 {
			b.Fatalf("profile %v, err %v", p, err)
		}
	}
}

// BenchmarkCacheStatsRPC reads the cache counters of a device whose
// program has no cache: the RPC's own cost.
func BenchmarkCacheStatsRPC(b *testing.B) {
	cl, _ := benchDevice(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.CacheStats(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPacketBatch is the measure RPC's packet codec alone: the batch
// encoded into a buffer with room, and decoded into a slab that held it
// before. Both are gated at 0 allocs/op.
func BenchmarkPacketBatch(b *testing.B) {
	batch := measureBatch()
	enc := appendPackets(nil, batch)
	b.Run("encode", func(b *testing.B) {
		buf := appendPackets(nil, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = appendPackets(buf[:0], batch)
		}
	})
	b.Run("decode", func(b *testing.B) {
		slab := new(packetSlab)
		if _, err := decodePackets(slab, enc); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := decodePackets(slab, enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}
