package profile_test

import (
	"fmt"
	"testing"

	"pipeleon/internal/profile"
)

// benchLayout is a 16-table program's worth of sites.
func benchLayout() *profile.Layout {
	l := &profile.Layout{}
	for i := 0; i < 16; i++ {
		name := fmt.Sprintf("t%d", i)
		l.Tables = append(l.Tables, name)
		l.Actions = append(l.Actions, profile.ActionSite{Table: name, Action: "hit"}, profile.ActionSite{Table: name, Action: "miss"})
	}
	l.Branches = []string{"c0", "c1"}
	l.Caches = []string{"k0"}
	return l
}

// recordPacket is what the emulator's walk records for one sampled packet
// of flow f: the flow, and per table an action and a key. Half the tables
// key on the flow (high cardinality), half on a 64-valued field.
func recordPacket(b *profile.Burst, l *profile.Layout, f uint64) {
	b.AddFlow(f * 0x9e3779b97f4a7c15)
	b.IncBranch(0, f&1 == 0)
	for t := range l.Tables {
		b.IncAction(2*t + int(f&1))
		if t&1 == 0 {
			b.AddKey(t, 0x0a000000+f)
		} else {
			b.AddKey(t, f&63)
		}
	}
}

// BenchmarkBurstFlush is the profiling sink per packet: 32 packets
// recorded into a Burst and flushed, over a window of 8 192 packets drawn
// hot-first from 4 096 flows. ns/op is per packet.
func BenchmarkBurstFlush(b *testing.B) {
	l := benchLayout()
	col := profile.NewCollector()
	burst := col.Bind(l, 1)[0].NewBurst()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Every fourth packet walks the flows; the rest repeat 32 hot ones.
		f := uint64(i>>2) & 4095
		if i&3 != 0 {
			f = uint64(i) & 31
		}
		recordPacket(burst, l, f)
		if i&31 == 31 {
			burst.Flush()
		}
		if i&8191 == 8191 {
			col.Reset()
		}
	}
	burst.Flush()
}

// BenchmarkSnapshot is one window's Snapshot with 20 000 distinct keys in
// each of the 16 tables' sets and as many flows.
func BenchmarkSnapshot(b *testing.B) {
	b.Run("keys=20000", func(b *testing.B) {
		l := benchLayout()
		col := profile.NewCollector()
		burst := col.Bind(l, 8)[3].NewBurst()
		for f := uint64(0); f < 20000; f++ {
			burst.AddFlow(f + 1)
			for t := range l.Tables {
				burst.IncAction(2 * t)
				burst.AddKey(t, f)
			}
			if f&31 == 31 {
				burst.Flush()
			}
		}
		burst.Flush()
		if p := col.Snapshot(); p.KeyCardinality["t7"] != 20000 || p.FlowCardinality != 20000 {
			b.Fatalf("cardinalities %d/%d, want 20000", p.KeyCardinality["t7"], p.FlowCardinality)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col.Snapshot()
		}
	})
}
