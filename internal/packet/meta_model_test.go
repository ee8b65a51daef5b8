package packet

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"testing"
)

// metaModel is the obvious metadata store: one Go map per packet, keyed
// by field name as MetaMap reports it.
type metaModel map[string]uint64

// checkMeta compares every field of the universe, present or not, and
// the MetaMap view.
func checkMeta(t *testing.T, what string, p *Packet, m metaModel, universe []FieldID) {
	t.Helper()
	for _, id := range universe {
		if got, want := p.GetID(id), m[FieldName(id)]; got != want {
			t.Fatalf("%s: %s = %d, model %d", what, FieldName(id), got, want)
		}
	}
	if got, want := p.MetaMap(), map[string]uint64(m); !maps.Equal(got, want) { // nil when empty
		t.Fatalf("%s: MetaMap has %d fields, model %d", what, len(got), len(want))
	}
}

// TestMetaMatchesMapModel drives a handful of packets and their map
// models through random SetID / Set / CloneInto / Clone / ClearMeta
// steps, at field counts inside the inline slots, past them and past one
// bitmap word, with more fields interned halfway. CloneInto targets are
// whichever packet the dice pick, so destinations are dirty: they hold
// another packet's fields, at other indices, in a buffer they keep.
func TestMetaMatchesMapModel(t *testing.T) {
	for _, fields := range []int{8, 24, 25, 70, 300} {
		t.Run(fmt.Sprintf("fields=%d", fields), func(t *testing.T) {
			universe := make([]FieldID, fields)
			for i := range universe {
				universe[i] = FieldIDFor(fmt.Sprintf("meta.model_%d_%d", fields, i))
			}
			rng := rand.New(rand.NewSource(int64(fields)))
			pkts := make([]*Packet, 4)
			models := make([]metaModel, len(pkts))
			for i := range pkts {
				pkts[i] = tcpPacket()
				models[i] = metaModel{}
			}
			wire := tcpPacket().Serialize()
			for step := 0; step < 4000; step++ {
				if step == 2000 {
					// Fields interned after the packets sized their dense
					// stores: writing them must grow a store with its contents.
					for i := 0; i < 80; i++ {
						universe = append(universe, FieldIDFor(fmt.Sprintf("meta.model_%d_late_%d", fields, i)))
					}
				}
				i := rng.Intn(len(pkts))
				what := fmt.Sprintf("step %d", step)
				switch op := rng.Intn(100); {
				case op < 70:
					id, v := universe[rng.Intn(len(universe))], rng.Uint64()
					if op < 60 {
						pkts[i].SetID(id, v)
					} else if err := pkts[i].Set(FieldName(id), v); err != nil {
						t.Fatal(err)
					}
					models[i][FieldName(id)] = v
				case op < 85:
					j := rng.Intn(len(pkts))
					if j == i {
						continue
					}
					pkts[i].CloneInto(pkts[j])
					models[j] = metaModel{}
					for id, v := range models[i] {
						models[j][id] = v
					}
					checkMeta(t, what+" clone source", pkts[i], models[i], universe)
					i = j
				case op < 92:
					// A fresh clone must be independent of its source.
					c := pkts[i].Clone()
					id := universe[rng.Intn(len(universe))]
					c.SetID(id, ^models[i][FieldName(id)])
					checkMeta(t, what+" after Clone", pkts[i], models[i], universe)
				case op < 96:
					pkts[i].ClearMeta()
					models[i] = metaModel{}
				default:
					// Metadata never reaches the wire.
					if !bytes.Equal(pkts[i].Serialize(), wire) {
						t.Fatalf("%s: Serialize changed with metadata", what)
					}
				}
				checkMeta(t, what, pkts[i], models[i], universe)
			}
		})
	}
}

// A scratch packet that has held a wide packet keeps its buffer: cloning
// into it again, and writing past the inline slots, allocates nothing.
func TestCloneIntoReusesBuffer(t *testing.T) {
	ids := make([]FieldID, 100)
	for i := range ids {
		ids[i] = FieldIDFor(fmt.Sprintf("meta.reuse_%d", i))
	}
	src, wide := tcpPacket(), tcpPacket()
	for i, id := range ids {
		wide.SetID(id, uint64(i)+1)
	}
	var dst Packet
	wide.CloneInto(&dst)
	allocs := testing.AllocsPerRun(100, func() {
		src.CloneInto(&dst)
		for i, id := range ids {
			dst.SetID(id, uint64(i))
		}
		wide.CloneInto(&dst)
	})
	if allocs != 0 {
		t.Errorf("CloneInto + SetID on a warm scratch packet: %v allocs, want 0", allocs)
	}
	src.CloneInto(&dst)
	for _, id := range ids {
		if v := dst.GetID(id); v != 0 {
			t.Fatalf("%s = %d leaked from the previous occupant", FieldName(id), v)
		}
	}
}
