package nicsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/stats"
)

// tableShapes are the key layouts the model test drives: every match
// kind, one to three key words, keys whose masks tie in prefix bits (so
// probe order falls to install order), a 64-bit key and a keyless table.
var tableShapes = []struct {
	name string
	keys []p4ir.Key
}{
	{"exact1w", []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}}},
	{"exact2w", []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}, {Field: "tcp.sport", Kind: p4ir.MatchExact, Width: 16}}},
	{"exact3w", []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}, {Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}, {Field: "meta.a", Kind: p4ir.MatchExact, Width: 64}}},
	{"lpm1w", []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}}},
	{"lpm2w", []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchLPM, Width: 32}, {Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}}},
	{"exact+lpm", []p4ir.Key{{Field: "ipv4.protocol", Kind: p4ir.MatchExact, Width: 8}, {Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}}},
	{"ternary1w", []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchTernary, Width: 16}}},
	{"ternary2w", []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchTernary, Width: 32}, {Field: "tcp.dport", Kind: p4ir.MatchTernary, Width: 16}}},
	{"exact+lpm+ternary", []p4ir.Key{{Field: "ipv4.protocol", Kind: p4ir.MatchExact, Width: 8}, {Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32}, {Field: "tcp.sport", Kind: p4ir.MatchTernary, Width: 16}}},
	{"range", []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchRange, Width: 16}, {Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}}},
	{"keyless", nil},
}

// The operand spaces are small so that masked keys collide, groups empty
// and reappear, and deletes meet shadowed entries; they reach past the key
// widths, which p4ir's entry rule refuses (an entry is drawn as it is one
// time in sixteen, else fitted to its keys).
var (
	modelValues   = []uint64{0, 1, 2, 3, 0x0a000001, 0x0a0000ff, 0x0a00ff01, 0x0b000001, 0xffffffff, 0x1_0000_0001, 0x9e3779b97f4a7c15, ^uint64(0)}
	modelMasks    = []uint64{0, 0xff, 0xff00, 0xffff, 0xffffff00, 0xffffffff, 0x1_ffff_ffff, ^uint64(0)}
	modelPrefixes = []int{0, 1, 8, 16, 24, 31, 32, 40}
	modelActions  = []string{"fwd", "mark", "deny", "ghost"} // ghost is not an action of the table
)

// tableModel drives one table of an emulator through the entry API and,
// after every operation, rebuilds the reference store from what the entry
// list should now be and compares the two on a packet set.
type tableModel struct {
	t      *testing.T
	nic    *NIC
	tbl    *p4ir.Table // the reference's view: same keys and actions, the model's entries
	fixedL int
	fixedT int
	ops    int
	probes [][]uint64
}

func newTableModel(t *testing.T, shape int, fixedLPM, fixedTernary int) *tableModel {
	sh := tableShapes[shape%len(tableShapes)]
	actions := []*p4ir.Action{
		p4ir.NewAction("fwd", p4ir.Prim("forward", "$0")),
		p4ir.NewAction("mark", p4ir.Prim("modify_field", "meta.mark", "$0"), p4ir.Prim("modify_field", "meta.b", "$1")),
		p4ir.NewAction("deny", p4ir.Prim("drop")),
		p4ir.NoopAction("miss"),
	}
	prog, err := p4ir.ChainTables("model", []p4ir.TableSpec{{Name: "t", Keys: sh.keys, Actions: actions, DefaultAction: "miss"}})
	if err != nil {
		t.Fatal(err)
	}
	pm := testParams()
	pm.LPMFixedM, pm.TernaryFixedM = fixedLPM, fixedTernary
	nic, err := New(prog, Config{Params: pm})
	if err != nil {
		t.Fatal(err)
	}
	ref := *prog.Tables["t"]
	ref.Entries = nil
	m := &tableModel{t: t, nic: nic, tbl: &ref, fixedL: fixedLPM, fixedT: fixedTernary}
	// Adversarial packets: every combination of a few operand values per
	// key word, zero and all-ones among them, width-masked as gather does.
	nk := len(sh.keys)
	probe := make([]uint64, nk)
	var fill func(i int)
	fill = func(i int) {
		if i == nk {
			m.probes = append(m.probes, slices.Clone(probe))
			return
		}
		for _, v := range modelValues {
			if nk > 2 && v > 3 && v != ^uint64(0) {
				continue // keep three-word shapes to 5^3 packets
			}
			probe[i] = v & sh.keys[i].FullMask()
			fill(i + 1)
		}
	}
	fill(0)
	return m
}

// check compares the live store with a rebuild of the model's entry list.
func (m *tableModel) check(op string) {
	m.t.Helper()
	m.ops++
	live := m.nic.prog.Tables["t"]
	if len(live.Entries) != len(m.tbl.Entries) || (len(live.Entries) > 0 && !reflect.DeepEqual(live.Entries, m.tbl.Entries)) {
		m.t.Fatalf("op %d (%s): Table.Entries\n got %+v\nwant %+v", m.ops, op, live.Entries, m.tbl.Entries)
	}
	ref, err := refBuildTable(m.tbl, m.fixedL, m.fixedT)
	if err != nil {
		m.t.Fatalf("op %d (%s): reference rebuild: %v", m.ops, op, err)
	}
	rt := m.nic.tables["t"]
	if !boundTo(&m.nic.plan.Load().nodes[0], rt) {
		m.t.Fatalf("op %d (%s): published plan does not hold the current table", m.ops, op)
	}
	if got, want := rt.numGroups(), ref.numGroups(); got != want {
		m.t.Fatalf("op %d (%s): numGroups %d, reference %d", m.ops, op, got, want)
	}
	sameLookup(m.t, fmt.Sprintf("op %d (%s)", m.ops, op), rt, ref, m.probes)
}

// sameLookup fails unless rt and ref agree on every probe: hit, probe
// count and which installed entry matched.
func sameLookup(t *testing.T, when string, rt *runtimeTable, ref *refTable, probes [][]uint64) {
	t.Helper()
	for _, p := range probes {
		g, want := lookupIn(rt, p), ref.lookup(p)
		if hit, probes := g != nil, rt.numGroups(); hit != want.hit || probes != want.probes {
			t.Fatalf("%s: lookup(%#x) hit=%v probes=%d, reference hit=%v probes=%d", when, p, hit, probes, want.hit, want.probes)
		}
		if !want.hit {
			continue
		}
		w := want.entry
		if g.priority != w.priority || g.cact.act.Name != w.cact.act.Name || !reflect.DeepEqual(g.cargs, w.cargs) || !slices.Equal(g.match, w.entry.Match) {
			t.Fatalf("%s: lookup(%#x) matched %+v prio %d -> %s%v, reference %+v prio %d -> %s%v", when, p,
				g.match, g.priority, g.cact.act.Name, g.cargs, w.entry.Match, w.priority, w.cact.act.Name, w.cargs)
		}
	}
}

// apply runs one operation on the emulator and the same operation, as
// the rebuilding control plane defined it, on the model's entry list; both
// must accept or both refuse.
func (m *tableModel) apply(op string, live func() error, model func() error) {
	m.t.Helper()
	before := m.nic.tables["t"]
	var snapshot *refTable
	if m.ops%7 == 0 {
		// The table a reader may still hold must not change under it.
		snapshot, _ = refBuildTable(m.tbl, m.fixedL, m.fixedT)
		m.tbl = cloneTable(m.tbl) // the snapshot keeps the old entry list
	}
	gotErr, wantErr := live(), model()
	if (gotErr == nil) != (wantErr == nil) {
		m.t.Fatalf("op %d (%s): error %v, model %v", m.ops+1, op, gotErr, wantErr)
	}
	if gotErr != nil && m.nic.tables["t"] != before {
		m.t.Fatalf("op %d (%s): refused with %v but published a new table", m.ops+1, op, gotErr)
	}
	if snapshot != nil {
		sameLookup(m.t, fmt.Sprintf("op %d (%s), table held from before it", m.ops+1, op), before, snapshot, m.probes)
	}
	m.check(op)
}

func cloneTable(t *p4ir.Table) *p4ir.Table {
	c := *t
	c.Entries = make([]p4ir.Entry, len(t.Entries))
	for i, e := range t.Entries {
		c.Entries[i] = e.Clone()
	}
	return &c
}

func (m *tableModel) insert(e p4ir.Entry) {
	m.t.Helper()
	m.apply("insert", func() error { return m.nic.InsertEntry("t", e) }, func() error {
		if err := m.tbl.CheckEntry(e); err != nil {
			return err
		}
		m.tbl.Entries = append(m.tbl.Entries, e.Clone())
		return nil
	})
}

func (m *tableModel) firstMatch(match []p4ir.MatchValue) int {
	return slices.IndexFunc(m.tbl.Entries, func(e p4ir.Entry) bool { return slices.Equal(e.Match, match) })
}

func (m *tableModel) delete(match []p4ir.MatchValue) {
	m.t.Helper()
	m.apply("delete", func() error { return m.nic.DeleteEntry("t", match) }, func() error {
		i := m.firstMatch(match)
		if i < 0 {
			return fmt.Errorf("no such entry")
		}
		m.tbl.Entries = slices.Delete(m.tbl.Entries, i, i+1)
		return nil
	})
}

func (m *tableModel) modify(match []p4ir.MatchValue, action string, args []string) {
	m.t.Helper()
	m.apply("modify", func() error { return m.nic.ModifyEntry("t", match, action, args) }, func() error {
		i := m.firstMatch(match)
		if i < 0 {
			return fmt.Errorf("no such entry")
		}
		if err := m.tbl.CheckEntry(p4ir.Entry{Match: match, Action: action, Args: args}); err != nil {
			return err
		}
		m.tbl.Entries[i].Action, m.tbl.Entries[i].Args = action, slices.Clone(args)
		return nil
	})
}

func (m *tableModel) replace(entries []p4ir.Entry) {
	m.t.Helper()
	m.apply("replace", func() error { return m.nic.ReplaceEntries("t", entries) }, func() error {
		for _, e := range entries {
			if err := m.tbl.CheckEntry(e); err != nil {
				return err
			}
		}
		m.tbl.Entries = cloneTable(&p4ir.Table{Entries: entries}).Entries
		return nil
	})
}

// swap puts the device on a copy of the program it runs — the store is
// kept — or, flipped, on one whose table has another default action — the
// store is rebuilt from the entry list, renumbering the installs.
func (m *tableModel) swap(flip bool) {
	m.t.Helper()
	other := map[string]string{"miss": "deny", "deny": "miss"}[m.tbl.DefaultAction]
	m.apply("swap", func() error {
		next := m.nic.Program().Clone()
		if flip {
			next.Tables["t"].DefaultAction = other
		}
		return m.nic.Swap(next)
	}, func() error {
		if flip {
			m.tbl.DefaultAction = other
		}
		return nil
	})
}

// run interprets prog as an operation stream: one opcode byte, then the
// operands the opcode takes, each one byte indexing an operand space.
func (m *tableModel) run(prog []byte) {
	m.t.Helper()
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	match := func() []p4ir.MatchValue {
		mv := make([]p4ir.MatchValue, len(m.tbl.Keys))
		for i := range mv {
			mv[i] = p4ir.MatchValue{
				Value:     modelValues[next()%len(modelValues)],
				PrefixLen: modelPrefixes[next()%len(modelPrefixes)],
				Mask:      modelMasks[next()%len(modelMasks)],
			}
		}
		return mv
	}
	entry := func() p4ir.Entry {
		e := p4ir.Entry{Match: match(), Priority: next()%4 - 1, Action: modelActions[next()%len(modelActions)]}
		for n := next() % 3; n > 0; n-- {
			e.Args = append(e.Args, fmt.Sprint(next()))
		}
		switch next() % 16 {
		case 0:
			e.Match = append(e.Match, p4ir.MatchValue{}) // wrong arity
		case 1: // as drawn
		default:
			for i, k := range m.tbl.Keys {
				mv := &e.Match[i]
				mv.Value, mv.Mask, mv.PrefixLen = mv.Value&k.FullMask(), mv.Mask&k.FullMask(), min(mv.PrefixLen, k.BitWidth())
			}
		}
		return e
	}
	// installed picks the match of an entry that is there, oldest-first
	// half of the time so that groups lose their first-installed entry.
	installed := func() []p4ir.MatchValue {
		n := len(m.tbl.Entries)
		if n == 0 || next()%8 == 0 {
			return match()
		}
		i := next() % n
		if next()&1 == 0 {
			i = 0
		}
		return slices.Clone(m.tbl.Entries[i].Match)
	}
	for len(prog) > 0 {
		switch op := next(); {
		case op < 128:
			m.insert(entry())
		case op < 200:
			m.delete(installed())
		case op < 240:
			var args []string
			if next()&1 == 1 {
				args = []string{fmt.Sprint(next())}
			}
			m.modify(installed(), modelActions[next()%len(modelActions)], args)
		case op < 248:
			entries := make([]p4ir.Entry, next()%12)
			for i := range entries {
				entries[i] = entry()
			}
			m.replace(entries)
		default:
			m.swap(next()&1 == 1)
		}
	}
}

// TestTableMatchesReference replays seeded random operation streams on
// every table shape, with and without a pinned probe charge.
func TestTableMatchesReference(t *testing.T) {
	for shape := range tableShapes {
		for _, fixed := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/fixedM=%d", tableShapes[shape].name, fixed), func(t *testing.T) {
				rng := stats.NewRNG(uint64(shape)*17 + uint64(fixed) + 1)
				prog := make([]byte, 6000)
				if testing.Short() {
					prog = prog[:1500]
				}
				for i := range prog {
					prog[i] = byte(rng.Uint64())
				}
				newTableModel(t, shape, fixed, fixed).run(prog)
			})
		}
	}
}

// TestTableGrowthAndShiftMatchReference takes two-word exact and LPM
// tables through thousands of distinct keys — every slot-array doubling,
// long probe runs, backward-shift deletes from the middle of them — and
// compares with a rebuild at checkpoints.
func TestTableGrowthAndShiftMatchReference(t *testing.T) {
	for _, shape := range []int{1, 3} {
		m := newTableModel(t, shape, 0, 0)
		m.probes = nil
		rng := stats.NewRNG(uint64(shape) + 99)
		const n = 3000
		entries := make([]p4ir.Entry, n)
		for i := range entries {
			mv := make([]p4ir.MatchValue, len(m.tbl.Keys))
			for k := range mv {
				mv[k] = p4ir.MatchValue{Value: rng.Uint64() % 4096 << 8 & m.tbl.Keys[k].FullMask(), PrefixLen: 16 + int(rng.Uint64()%9)}
			}
			entries[i] = p4ir.Entry{Match: mv, Action: "fwd", Args: []string{fmt.Sprint(i)}, Priority: int(rng.Uint64() % 2)}
			m.probes = append(m.probes, []uint64{mv[0].Value, mv[len(mv)-1].Value & 0xffff}[:len(mv)])
		}
		step := func(i int, op string, err error) {
			if err != nil {
				t.Fatalf("%s %d: %v", op, i, err)
			}
			if i%500 == 499 {
				m.check(op)
			}
		}
		for i, e := range entries {
			m.tbl.Entries = append(m.tbl.Entries, e.Clone())
			step(i, "insert", m.nic.InsertEntry("t", e))
		}
		for i := 0; i < n; i++ {
			j := int(rng.Uint64() % uint64(len(m.tbl.Entries)))
			match := slices.Clone(m.tbl.Entries[j].Match)
			m.tbl.Entries = slices.Delete(m.tbl.Entries, m.firstMatch(match), m.firstMatch(match)+1)
			step(i, "delete", m.nic.DeleteEntry("t", match))
		}
	}
}

// FuzzTableModel lets the fuzzer pick the shape and write the operation
// stream. Seed corpus lives in testdata/fuzz/FuzzTableModel.
func FuzzTableModel(f *testing.F) {
	f.Add(uint8(1), uint8(0), []byte{0, 4, 0, 0, 1, 0, 0, 2, 0, 1, 9, 0, 130, 1, 0, 0}) // insert, delete it
	// insert, swap keeping the store, insert, swap rebuilding it, delete the oldest, swap
	f.Add(uint8(6), uint8(0), []byte{0, 4, 0, 3, 2, 0, 1, 9, 5, 250, 0, 0, 5, 0, 2, 1, 1, 0, 5, 250, 1, 130, 1, 0, 250, 0})
	f.Fuzz(func(t *testing.T, shape, fixed uint8, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096] // every operation costs a reference rebuild
		}
		newTableModel(t, int(shape), int(fixed%4), int(fixed%4)).run(prog)
	})
}
