package experiments

import (
	"fmt"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/stats"
)

// Shared program builders for the microbenchmarks. The paper's
// microbenchmark programs are "constructed using pipelets with four
// tables, replicated with a scale factor N" (§5.2.1).

// regularTable builds an exact table with nPrims-primitive main action and
// nEntries installed entries over the given field.
func regularTable(name, field string, nPrims, nEntries int, seed uint64) p4ir.TableSpec {
	rng := stats.NewRNG(seed)
	var prims []p4ir.Primitive
	for i := 0; i < nPrims; i++ {
		prims = append(prims, p4ir.Prim("modify_field", fmt.Sprintf("meta.%s_%d", name, i), "1"))
	}
	ts := p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
		Actions:       []*p4ir.Action{p4ir.NewAction("apply", prims...), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
	}
	// Entry values must fit the key's field width (a 16-bit draw on the
	// 8-bit tos field is no entry at all; p4ir refuses it, P4S06).
	full := ts.Keys[0].FullMask()
	for i := 0; i < nEntries; i++ {
		ts.Entries = append(ts.Entries, p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: uint64(rng.Intn(1<<16)) & full}},
			Action: "apply",
		})
	}
	return ts
}

// lpmTable builds an LPM table with the paper's 3 distinct prefixes.
func lpmTable(name, field string, nEntries int, seed uint64) p4ir.TableSpec {
	rng := stats.NewRNG(seed)
	prefixes := []int{8, 16, 24}
	ts := p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchLPM, Width: 32}},
		Actions:       []*p4ir.Action{p4ir.NewAction("apply", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
	}
	for i := 0; i < nEntries; i++ {
		plen := prefixes[i%len(prefixes)]
		k := p4ir.Key{Width: 32}
		ts.Entries = append(ts.Entries, p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: uint64(rng.Intn(1<<24)) & k.PrefixMask(plen), PrefixLen: plen}},
			Action: "apply",
		})
	}
	return ts
}

// ternaryTable builds a ternary table with the paper's 5 distinct masks.
func ternaryTable(name, field string, nEntries int, seed uint64) p4ir.TableSpec {
	return ternaryTableN(name, field, nEntries, 5, seed)
}

// ternaryTableN builds a ternary table with nMasks distinct masks — the
// lookup cost knob (m = distinct masks).
func ternaryTableN(name, field string, nEntries, nMasks int, seed uint64) p4ir.TableSpec {
	rng := stats.NewRNG(seed)
	width := packet.FieldWidth(field)
	full := p4ir.Key{Width: width}.FullMask()
	ts := p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchTernary, Width: width}},
		Actions:       []*p4ir.Action{p4ir.NewAction("apply", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
	}
	for i := 0; i < nEntries; i++ {
		mask := full &^ ((uint64(1) << ((i % nMasks) * 2)) - 1)
		ts.Entries = append(ts.Entries, p4ir.Entry{
			Priority: 1 + i%nMasks,
			Match:    []p4ir.MatchValue{{Value: uint64(rng.Intn(1<<16)) & mask, Mask: mask}},
			Action:   "apply",
		})
	}
	return ts
}

// aclTernary builds a ternary ACL: filler allow entries over several masks
// plus one full-mask drop entry for field == dropValue with top priority.
func aclTernary(name, field string, dropValue uint64, seed uint64) p4ir.TableSpec {
	ts := ternaryTableN(name, field, 24, 12, seed)
	ts.Name = name
	ts.Actions = append(ts.Actions, p4ir.DropAction())
	full := p4ir.Key{Width: packet.FieldWidth(field)}.FullMask()
	ts.Entries = append(ts.Entries, p4ir.Entry{
		Priority: 99,
		Match:    []p4ir.MatchValue{{Value: dropValue & full, Mask: full}},
		Action:   "drop_packet",
	})
	return ts
}

// aclTable builds a drop/allow table whose single entry drops packets
// with field == dropValue.
func aclTable(name, field string, dropValue uint64) p4ir.TableSpec {
	return p4ir.TableSpec{
		Name:          name,
		Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
		Entries: []p4ir.Entry{
			{Match: []p4ir.MatchValue{{Value: dropValue}}, Action: "drop_packet"},
		},
	}
}

// exactChainProgram builds n exact tables with nPrims primitives each.
func exactChainProgram(n, nPrims int) *p4ir.Program {
	fields := []string{"ipv4.dstAddr", "ipv4.srcAddr", "tcp.sport", "tcp.dport"}
	specs := make([]p4ir.TableSpec, n)
	for i := 0; i < n; i++ {
		specs[i] = regularTable(fmt.Sprintf("t%02d", i), fields[i%len(fields)], nPrims, 8, uint64(i)+1)
	}
	prog, err := p4ir.ChainTables(fmt.Sprintf("exact%d", n), specs)
	if err != nil {
		panic(err)
	}
	return prog
}

// reorderBenchProgram builds the fig9a/9b microbenchmark: total-1 regular
// exact tables plus one ACL placed at the given position (0 = first).
func reorderBenchProgram(total, aclPos int, dropValue uint64) *p4ir.Program {
	fields := []string{"ipv4.dstAddr", "ipv4.srcAddr", "tcp.sport"}
	var specs []p4ir.TableSpec
	ri := 0
	for i := 0; i < total; i++ {
		if i == aclPos {
			specs = append(specs, aclTable("acl", "tcp.dport", dropValue))
			continue
		}
		// Alternate exact and LPM tables so the full path sits below
		// line rate and the position sweep has a visible range.
		if ri%2 == 0 {
			specs = append(specs, regularTable(fmt.Sprintf("t%02d", ri), fields[ri%len(fields)], 2, 8, uint64(ri)+1))
		} else {
			specs = append(specs, lpmTable(fmt.Sprintf("t%02d", ri), "ipv4.dstAddr", 9, uint64(ri)+1))
		}
		ri++
	}
	prog, err := p4ir.ChainTables("reorderbench", specs)
	if err != nil {
		panic(err)
	}
	return prog
}
