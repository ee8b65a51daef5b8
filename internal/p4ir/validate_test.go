package p4ir

import (
	"errors"
	"slices"
	"testing"

	"pipeleon/internal/diag"
)

// Validate is a thin wrapper over StructuralDiagnostics: the sentinels
// stay matchable via errors.Is, every violation is reported (collect-all,
// not fail-fast), and the diagnostic codes are stable.

// brokenProgram piles up several independent structural violations.
func brokenProgram() *Program {
	p := NewProgram("broken")
	p.Root = "t1"
	p.Tables["t1"] = &Table{
		Name:          "t1",
		Actions:       []*Action{NoopAction("pass")},
		DefaultAction: "nope",  // P4S04
		BaseNext:      "ghost", // P4S02
	}
	p.Tables["t2"] = &Table{
		Name:          "t2",
		Actions:       []*Action{NoopAction("pass")},
		DefaultAction: "pass",
		Entries: []Entry{
			{Match: []MatchValue{{Value: 1}}, Action: "pass"}, // arity vs 0 keys: P4S06
		},
	}
	return p
}

func TestValidateSentinelsMatchable(t *testing.T) {
	err := brokenProgram().Validate()
	if err == nil {
		t.Fatal("broken program validated")
	}
	for _, sentinel := range []error{ErrDanglingRef, ErrBadDefault, ErrBadEntry} {
		if !errors.Is(err, sentinel) {
			t.Errorf("errors.Is(err, %v) = false; err = %v", sentinel, err)
		}
	}
	if errors.Is(err, ErrNoRoot) {
		t.Errorf("err wrongly matches ErrNoRoot: %v", err)
	}
}

func TestValidateCollectsAll(t *testing.T) {
	var verr *ValidationError
	if !errors.As(brokenProgram().Validate(), &verr) {
		t.Fatal("error is not a *ValidationError")
	}
	if len(verr.Diags) < 3 {
		t.Fatalf("collected %d diagnostics, want >= 3:\n%v", len(verr.Diags), verr.Diags)
	}
	for _, d := range verr.Diags {
		if d.Severity != diag.Error {
			t.Errorf("structural diagnostic %v is not Error severity", d)
		}
	}
	for _, code := range []string{CodeDanglingRef, CodeBadDefault, CodeBadEntry} {
		if !slices.ContainsFunc(verr.Diags, func(d diag.Diagnostic) bool { return d.Code == code }) {
			t.Errorf("no %s diagnostic in %v", code, verr.Diags)
		}
	}
}

func TestValidateNilOnClean(t *testing.T) {
	p, err := ChainTables("clean", []TableSpec{{
		Name:          "t",
		Actions:       []*Action{NoopAction("pass")},
		DefaultAction: "pass",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("clean program failed validation: %v", err)
	}
	if l := p.StructuralDiagnostics(); len(l) != 0 {
		t.Fatalf("clean program has structural diagnostics: %v", l)
	}
}

func TestValidateCycle(t *testing.T) {
	p := NewProgram("cyc")
	p.Root = "a"
	p.Tables["a"] = &Table{Name: "a", Actions: []*Action{NoopAction("x")}, DefaultAction: "x", BaseNext: "b"}
	p.Tables["b"] = &Table{Name: "b", Actions: []*Action{NoopAction("x")}, DefaultAction: "x", BaseNext: "a"}
	err := p.Validate()
	if !errors.Is(err, ErrCycle) {
		t.Fatalf("cycle not reported via ErrCycle: %v", err)
	}
}

func TestValidateEmptyAndNoRoot(t *testing.T) {
	if err := NewProgram("empty").Validate(); err != nil {
		t.Fatalf("empty program should validate (it is trivially consistent): %v", err)
	}
	p := NewProgram("rootless")
	p.Tables["t"] = &Table{Name: "t", Actions: []*Action{NoopAction("x")}, DefaultAction: "x"}
	if err := p.Validate(); !errors.Is(err, ErrNoRoot) {
		t.Fatalf("missing root not reported via ErrNoRoot: %v", err)
	}
}

func TestDiagnosticStringFormat(t *testing.T) {
	var l diag.List
	l.Add(CodeDanglingRef, diag.Error, "t1", "", "next %q names no node", "ghost")
	got := l[0].String()
	want := `P4S02 error t1: next "ghost" names no node`
	if got != want {
		t.Errorf("diagnostic renders %q, want %q", got, want)
	}
}
