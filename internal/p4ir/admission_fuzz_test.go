package p4ir_test

import (
	"errors"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
)

// FuzzEntryAdmission: one rule judges an entry wherever it arrives. For a
// fuzzed key kind and width, match value, mask, prefix length, match arity,
// action and action data count, Program.InsertEntry admits the entry
// exactly when a program that bakes it passes Validate and the emulator
// builds that program; every refusal is P4S06.
func FuzzEntryAdmission(f *testing.F) {
	// kind, width, value, mask, prefix, arity, action, args
	f.Add(uint8(p4ir.MatchExact), uint8(16), uint64(80), uint64(0), 0, uint8(1), uint8(0), uint8(1))        // valid
	f.Add(uint8(p4ir.MatchExact), uint8(16), uint64(0x1ffff), uint64(0), 0, uint8(1), uint8(1), uint8(0))   // value too wide
	f.Add(uint8(p4ir.MatchLPM), uint8(32), uint64(0x0a000000), uint64(0), 33, uint8(1), uint8(1), uint8(0)) // prefix longer than the width
	f.Add(uint8(p4ir.MatchLPM), uint8(32), uint64(0x0a000000), uint64(0), -1, uint8(1), uint8(1), uint8(0)) // negative prefix
	f.Add(uint8(p4ir.MatchTernary), uint8(8), uint64(0x10), uint64(0x1f0), 0, uint8(1), uint8(1), uint8(0)) // mask outside the width
	f.Add(uint8(p4ir.MatchRange), uint8(0), uint64(1<<40), uint64(0xff), 0, uint8(1), uint8(1), uint8(0))   // value past the default 32 bits
	f.Add(uint8(p4ir.MatchExact), uint8(16), uint64(80), uint64(0), 0, uint8(2), uint8(1), uint8(0))        // wrong arity
	f.Add(uint8(p4ir.MatchExact), uint8(16), uint64(80), uint64(0), 0, uint8(1), uint8(2), uint8(0))        // unknown action
	f.Add(uint8(p4ir.MatchExact), uint8(16), uint64(80), uint64(0), 0, uint8(1), uint8(0), uint8(0))        // too few action data
	f.Add(uint8(p4ir.MatchTernary), uint8(70), ^uint64(0), ^uint64(0), 0, uint8(1), uint8(0), uint8(2))     // a 64-bit clamp
	f.Fuzz(func(t *testing.T, kind, width uint8, value, mask uint64, prefix int, arity, action, args uint8) {
		build := func() *p4ir.Program {
			prog, err := p4ir.ChainTables("admit", []p4ir.TableSpec{{
				Name:          "t",
				Keys:          []p4ir.Key{{Field: "meta.k", Kind: p4ir.MatchKind(kind % 4), Width: int(width % 80)}},
				Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.v", "$0")), p4ir.NoopAction("pass")},
				DefaultAction: "pass",
			}})
			if err != nil {
				t.Fatal(err)
			}
			return prog
		}
		e := p4ir.Entry{Action: []string{"set", "pass", "ghost"}[action%3]}
		for range arity % 3 {
			e.Match = append(e.Match, p4ir.MatchValue{Value: value, PrefixLen: prefix, Mask: mask})
		}
		for range args % 3 {
			e.Args = append(e.Args, "7")
		}
		_, insertErr := build().InsertEntry("t", e)
		baked := build()
		baked.Tables["t"].Entries = []p4ir.Entry{e}
		validateErr := baked.Validate()
		_, newErr := nicsim.New(baked, nicsim.Config{Params: costmodel.BlueField2()})
		for _, err := range []error{insertErr, validateErr, newErr} {
			if (err == nil) != (insertErr == nil) {
				t.Fatalf("entry %+v: InsertEntry %v, Validate %v, nicsim.New %v", e, insertErr, validateErr, newErr)
			}
			if err != nil && !errors.Is(err, p4ir.ErrBadEntry) {
				t.Fatalf("entry %+v refused without P4S06: %v", e, err)
			}
		}
	})
}
