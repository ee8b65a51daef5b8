package packet

import (
	"fmt"
	"testing"
)

// BenchmarkMeta is one packet's worth of metadata traffic at three
// program sizes — inside the inline slots, past them, and at the
// 110-table synthetic program's width: clone a metadata-free packet into
// a warm scratch packet, write every field, read every field back.
func BenchmarkMeta(b *testing.B) {
	for _, fields := range []int{8, 64, 256} {
		b.Run(fmt.Sprintf("fields=%d", fields), func(b *testing.B) {
			ids := make([]FieldID, fields)
			for i := range ids {
				ids[i] = FieldIDFor(fmt.Sprintf("meta.bench_%d", i))
			}
			src := tcpPacket()
			var dst Packet
			var sum uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				src.CloneInto(&dst)
				for j, id := range ids {
					dst.SetID(id, uint64(i+j))
				}
				for _, id := range ids {
					sum += dst.GetID(id)
				}
			}
			metaSink = sum
		})
	}
}

var metaSink uint64

// BenchmarkCloneInto is the per-packet clone of the burst arena: a
// generated packet (one metadata field) into a scratch packet whose last
// occupant spilled 256 fields to the dense store.
func BenchmarkCloneInto(b *testing.B) {
	src := tcpPacket()
	src.SetID(FieldIDFor("meta.bench_0"), 1)
	wide := tcpPacket()
	for i := 0; i < 256; i++ {
		wide.SetID(FieldIDFor(fmt.Sprintf("meta.bench_%d", i)), uint64(i))
	}
	var dst Packet
	wide.CloneInto(&dst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.CloneInto(&dst)
	}
}
