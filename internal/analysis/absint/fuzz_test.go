package absint

import (
	"bytes"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/trafficgen"
)

// FuzzAbsintAgree is the interpreter's standing soundness obligation under
// fuzzer-mangled programs: for any program the emulator accepts, the
// abstract result must contain the concrete result of every processed
// packet — a concrete drop implies MayDrop and every observable field of
// an egressed packet lies inside the abstract egress join. Nothing may
// panic. Seed corpus lives in testdata/fuzz/FuzzAbsintAgree.
func FuzzAbsintAgree(f *testing.F) {
	f.Add([]byte(`{"name":"x","init_table":"t","tables":[{"name":"t","key":[{"target":"ipv4.ttl","match_type":"exact","width":8}],"actions":[{"name":"drop","primitives":[{"op":"drop"}]},{"name":"fwd","primitives":[{"op":"forward","parameters":["3"]}]}],"default_action":"fwd","entries":[{"match_key":[{"value":64}],"action_name":"drop"}]}],"conditionals":[]}`), uint64(7))
	f.Add([]byte(`{"name":"y","init_table":"c","tables":[{"name":"t","key":[{"target":"tcp.dport","match_type":"ternary","width":16}],"actions":[{"name":"m","primitives":[{"op":"add","parameters":["meta.n","meta.n","$0"]}]}],"entries":[{"priority":2,"match_key":[{"value":80,"mask":65520}],"action_name":"m","action_data":["5"]}]}],"conditionals":[{"name":"c","expression":"ipv4.proto == 6","true_next":"t","false_next":"","read_fields":["ipv4.proto"]}]}`), uint64(1))
	f.Add([]byte(`{}`), uint64(0))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		prog, err := p4ir.Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if prog.Validate() != nil {
			return
		}
		res, err := Analyze(prog)
		if err != nil {
			return // structurally rejected (e.g. cyclic) — emulator rejects too
		}
		nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2(), Seed: seed})
		if err != nil {
			t.Skip() // compile rejection is fine; panics are not
		}
		hasCaches := false
		for _, t := range prog.Tables {
			_, isCache := t.CacheMeta()
			hasCaches = hasCaches || isCache
		}

		gen := trafficgen.New(seed, 0)
		gen.AddFlows(trafficgen.UniformFlows(seed+1, 8)...)
		for pi, pkt := range gen.Batch(16) {
			clearMeta(pkt)
			r := nic.Process(pkt)
			if !hasCaches {
				// With flow caches a warm hit takes the hit edge, which the
				// deploy-time (cold) abstraction leaves unreachable; the
				// value containment below still must hold.
				for _, node := range r.Path {
					if nr := res.Nodes[node]; nr == nil || !nr.Reachable {
						t.Fatalf("pkt %d: concrete path visits %q, abstractly unreachable", pi, node)
					}
				}
			}
			if r.Dropped {
				if !res.Outcome.MayDrop {
					t.Fatalf("pkt %d dropped but abstract outcome forbids drops", pi)
				}
				continue
			}
			if res.Outcome.Egress == nil {
				t.Fatalf("pkt %d egressed but no abstract egress state", pi)
			}
			for _, fname := range packet.KnownFields() {
				c := pkt.GetID(packet.FieldIDFor(fname))
				if av := res.Outcome.Egress.Get(fname); !av.Contains(c) {
					t.Fatalf("pkt %d: %s = %#x outside abstract %+v", pi, fname, c, av)
				}
			}
			for k, c := range pkt.MetaMap() {
				if av := res.Outcome.Egress.Get(k); !av.Contains(c) {
					t.Fatalf("pkt %d: %s = %#x outside abstract %+v", pi, k, c, av)
				}
			}
		}
	})
}
