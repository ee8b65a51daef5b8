package core

import (
	"strings"
	"testing"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// admissionProgram is table t — an exact, an LPM and a ternary key, an
// action that reads one datum — in front of an exact table u, so a plan
// can cache or merge the two.
func admissionProgram(t *testing.T) *p4ir.Program {
	t.Helper()
	prog, err := p4ir.ChainTables("admission", []p4ir.TableSpec{{
		Name: "t",
		Keys: []p4ir.Key{
			{Field: "tcp.sport", Kind: p4ir.MatchExact, Width: 16},
			{Field: "ipv4.dstAddr", Kind: p4ir.MatchLPM, Width: 32},
			{Field: "ipv4.tos", Kind: p4ir.MatchTernary, Width: 8},
		},
		Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta.t", "$0")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Entries: []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 22}, {Value: 0x0b000000, PrefixLen: 8}, {Value: 0x20, Mask: 0xf0}},
			Action: "set", Args: []string{"1"}}},
	}, {
		Name:          "u",
		Keys:          []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}},
		Actions:       []*p4ir.Action{p4ir.NewAction("mark", p4ir.Prim("modify_field", "meta.u", "7")), p4ir.NoopAction("pass")},
		DefaultAction: "pass",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 1}}, Action: "mark"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// admissionStream is one entry of every kind p4ir's rule judges, each with
// whether the rule admits it.
func admissionStream() []struct {
	name string
	e    p4ir.Entry
	ok   bool
} {
	match := func(sport, dst uint64, plen int, tos, mask uint64) []p4ir.MatchValue {
		return []p4ir.MatchValue{{Value: sport}, {Value: dst, PrefixLen: plen}, {Value: tos, Mask: mask}}
	}
	return []struct {
		name string
		e    p4ir.Entry
		ok   bool
	}{
		{"valid", p4ir.Entry{Match: match(80, 0x0a000000, 8, 0x10, 0xf0), Action: "set", Args: []string{"5"}}, true},
		{"valid, no data", p4ir.Entry{Match: match(81, 0x0a0a0000, 16, 0, 0), Action: "pass"}, true},
		{"value bits outside the mask (a warning)", p4ir.Entry{Match: match(82, 0x0a000000, 8, 0x1f, 0xf0), Action: "pass"}, true},
		{"value too wide", p4ir.Entry{Match: match(0x1ffff, 0x0a000000, 8, 0x10, 0xf0), Action: "set", Args: []string{"5"}}, false},
		{"prefix longer than the width", p4ir.Entry{Match: match(83, 0x0a000000, 33, 0x10, 0xf0), Action: "pass"}, false},
		{"mask outside the width", p4ir.Entry{Match: match(84, 0x0a000000, 8, 0x10, 0x1f0), Action: "pass"}, false},
		{"wrong arity", p4ir.Entry{Match: match(85, 0x0a000000, 8, 0x10, 0xf0)[:2], Action: "pass"}, false},
		{"unknown action", p4ir.Entry{Match: match(86, 0x0a000000, 8, 0x10, 0xf0), Action: "ghost"}, false},
		{"too few action data", p4ir.Entry{Match: match(87, 0x0a000000, 8, 0x10, 0xf0), Action: "set"}, false},
	}
}

// Every path an entry takes to a table — the runtime's fast path on a
// plain and on a cached table, its slow path on a merged one, the wire
// server in front of a device, a replay target — admits exactly the
// entries p4ir's rule admits, and refuses the others with P4S06.
func TestEveryPathAdmitsTheSameEntries(t *testing.T) {
	layout := func(kind opt.SegKind) func(string, p4ir.Entry) error {
		rt, _, _ := newRig(t, admissionProgram(t), opt.DefaultConfig())
		part, err := pipelet.Form(rt.orig, 8)
		if err != nil {
			t.Fatal(err)
		}
		p := part.Pipelets[0]
		rt.mu.Lock()
		err = rt.deployNowLocked([]*opt.Option{{Kind: opt.OptPipelet, Pipelet: p, Order: p.Tables,
			Segments: []opt.Segment{{Kind: kind, Len: len(p.Tables)}}}})
		merged := rt.tableMergedLocked("t")
		rt.mu.Unlock()
		if err != nil || merged != (kind == opt.SegMerge) {
			t.Fatalf("deploying a %s over t and u: err %v, t merged %v", kind, err, merged)
		}
		return rt.InsertEntry
	}
	plain, _, _ := newRig(t, admissionProgram(t), opt.DefaultConfig())

	col := profile.NewCollector()
	nic, err := nicsim.New(admissionProgram(t), nicsim.Config{Params: costmodel.BlueField2(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(target.NewLocal(nic, col)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := controlplane.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	replay, err := target.NewReplayer(&target.Trace{Name: "admission"}, admissionProgram(t))
	if err != nil {
		t.Fatal(err)
	}

	for _, path := range []struct {
		name   string
		insert func(string, p4ir.Entry) error
	}{
		{"plain table", plain.InsertEntry},
		{"cached table", layout(opt.SegCache)},
		{"merged table", layout(opt.SegMerge)},
		{"loopback wire", cl.InsertEntry},
		{"replay target", replay.InsertEntry},
	} {
		for _, c := range admissionStream() {
			err := path.insert("t", c.e)
			if err != nil && !strings.Contains(err.Error(), p4ir.CodeBadEntry) {
				t.Errorf("%s: %s refused without %s: %v", path.name, c.name, p4ir.CodeBadEntry, err)
			}
			if (err == nil) != c.ok {
				t.Errorf("%s: %s: err = %v, want admitted = %v", path.name, c.name, err, c.ok)
			}
		}
	}
}
