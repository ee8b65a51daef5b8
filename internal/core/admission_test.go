package core

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"pipeleon/internal/analysis"
	"pipeleon/internal/controlplane"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
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
// server in front of a device — admits exactly the entries p4ir's rule
// admits, and refuses the others with P4S06.
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
	_, cl := wireDevice(t)

	for _, path := range []struct {
		name   string
		insert func(string, p4ir.Entry) error
	}{
		{"plain table", plain.InsertEntry},
		{"cached table", layout(opt.SegCache)},
		{"merged table", layout(opt.SegMerge)},
		{"loopback wire", cl.InsertEntry},
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

// wireDevice serves an emulator of the admission program on loopback and
// returns the device and a client of its server.
func wireDevice(t *testing.T) (target.Target, *controlplane.Client) {
	t.Helper()
	col := profile.NewCollector()
	nic, err := nicsim.New(admissionProgram(t), nicsim.Config{Params: costmodel.BlueField2(), Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	dev := target.NewLocal(nic, col)
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := controlplane.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return dev, cl
}

// A program is checked where it enters — by the code that makes it or
// receives it from a caller — and every such boundary refuses a malformed
// program with the same code: p4ir's Validate and DecodeBinary, the
// emulator's and the optimizer's constructors, the runtime's (with its
// *p4ir.ValidationError), a server receiving it over the wire, and the
// one-shot lint. The builder refuses the P4S11 table too.
func TestEveryBoundaryRefusesTheSameProgram(t *testing.T) {
	dev, cl := wireDevice(t)
	codes := func(err error) (out []string) {
		var ve *p4ir.ValidationError
		var de *controlplane.DeployError
		l := diag.List(nil)
		if errors.As(err, &de) {
			l = de.Diags
		} else if errors.As(err, &ve) {
			l = ve.Diags
		}
		for _, d := range l {
			out = append(out, d.Code)
		}
		return out
	}
	cfg, pm := opt.DefaultConfig(), costmodel.BlueField2()
	boundaries := []struct {
		name   string
		refuse func(*p4ir.Program) error
	}{
		{"Validate", func(p *p4ir.Program) error { return p.Validate() }},
		{"DecodeBinary", func(p *p4ir.Program) error { _, err := p4ir.DecodeBinary(p.AppendBinary(nil)); return err }},
		{"nicsim.New", func(p *p4ir.Program) error { _, err := nicsim.New(p, nicsim.Config{Params: pm}); return err }},
		{"opt.NewSession", func(p *p4ir.Program) error { _, err := opt.NewSession(p, pm, cfg); return err }},
		{"core.NewRuntime", func(p *p4ir.Program) error {
			_, err := NewRuntime(p, dev, cfg)
			if err != nil && strings.Contains(err.Error(), "partitioning program") {
				t.Errorf("%s: NewRuntime reads as a partitioning failure: %v", p.Name, err)
			}
			return err
		}},
		{"loopback wire", func(p *p4ir.Program) error { _, err := cl.DeployEncoded(p.AppendBinary(nil)); return err }},
		{"analysis.Lint", func(p *p4ir.Program) error { return &p4ir.ValidationError{Diags: analysis.Lint(p)} }},
	}

	edit := func(name string, f func(p *p4ir.Program)) *p4ir.Program {
		p := admissionProgram(t)
		p.Name = name
		f(p)
		return p
	}
	cases := []struct {
		code string
		prog *p4ir.Program
	}{
		{p4ir.CodeDanglingRef, edit("dangling", func(p *p4ir.Program) { p.Tables["u"].BaseNext = "missing" })},
		{p4ir.CodeCycle, edit("cycle", func(p *p4ir.Program) { p.Tables["u"].BaseNext = "t" })},
		{p4ir.CodeBadDefault, edit("default", func(p *p4ir.Program) { p.Tables["u"].DefaultAction = "ghost" })},
		{p4ir.CodeBadEntry, edit("entry", func(p *p4ir.Program) { // 17 bits in the 16-bit tcp.sport key, past InsertEntry
			e := p.Tables["t"].Entries[0].Clone()
			e.Match[0].Value = 0x1ffff
			p.Tables["t"].Entries = []p4ir.Entry{e}
		})},
		{p4ir.CodeEmptyName, edit("sink", func(p *p4ir.Program) {
			drop := p4ir.DropAction()
			p.Tables[""] = &p4ir.Table{Actions: []*p4ir.Action{drop}, DefaultAction: drop.Name}
		})},
		{p4ir.CodeDupAction, edit("dupaction", func(p *p4ir.Program) { // u's entry names mark: p4ir read the first, nicsim the last
			u := p.Tables["u"]
			u.Actions = append(slices.Clip(u.Actions), p4ir.NoopAction("mark"))
		})},
	}
	for _, c := range cases {
		for _, b := range boundaries {
			if got := codes(b.refuse(c.prog)); !slices.Equal(got, []string{c.code}) {
				t.Errorf("%s: %s refused with %v, want %s", c.prog.Name, b.name, got, c.code)
			}
		}
	}

	drop := p4ir.DropAction()
	_, err := p4ir.ChainTables("dupaction", []p4ir.TableSpec{{Name: "a", Actions: []*p4ir.Action{drop, p4ir.NoopAction(drop.Name)}, DefaultAction: drop.Name}})
	if got := codes(err); !slices.Equal(got, []string{p4ir.CodeDupAction}) {
		t.Errorf("the builder refused a table with two actions of one name with %v, want %s: %v", got, p4ir.CodeDupAction, err)
	}
}
