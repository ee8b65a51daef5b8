package analysis

import (
	"pipeleon/internal/costmodel"
	"pipeleon/internal/diag"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
)

// gateMemoCap bounds a gate's verdict memo, like proofMemoCap.
const gateMemoCap = 256

// Verdict is what a gate concluded about one program.
type Verdict struct {
	// Diags is every finding of the tiers that ran, sorted; shared with
	// the gate's memo, so read-only.
	Diags diag.List
	// Refusal is empty when the program may deploy. Otherwise it names the
	// tier that refused and its first error: "static analysis: PL104 ..."
	// for the lint, "semantic verification: SE003 ..." for the proof.
	Refusal string
}

// Gate is the check every program passes on its way to a device, whether
// a runtime deploys it locally or a server receives it over the wire:
//
//  1. Lint under the device's cost-model parameters. It is a tier of the
//     gate and not of the Verifier because it judges a program on one
//     device, while a proof holds on any device and is memoized by the
//     candidate's digest alone.
//  2. Verifier.Prove, when the gate has an original and the candidate is
//     not that very program.
//  3. LintDeep's warnings, behind a deep verifier.
//
// An error ends the check at its tier. Every tier is a deterministic
// function of the device's parameters, the original and the candidate, so
// verdicts are memoized under the candidate's digest, and EntriesChanged —
// the original changed — drops them all. Safe for concurrent use.
type Gate struct {
	pm       costmodel.Params
	v        *Verifier // nil: no original to prove against, lint only
	verdicts *memo.Table[p4ir.Digest, Verdict]
}

// NewGate returns the gate of a device with parameters pm. v proves
// candidates against its original and may be nil.
func NewGate(pm costmodel.Params, v *Verifier) *Gate {
	return &Gate{pm: pm, v: v, verdicts: memo.New[p4ir.Digest, Verdict](gateMemoCap)}
}

// Check returns the gate's verdict on cand; digest must be cand.Digest().
func (g *Gate) Check(cand *p4ir.Program, digest p4ir.Digest) Verdict {
	if v, ok := g.verdicts.Get(digest); ok {
		return v
	}
	v := g.check(cand, digest)
	g.verdicts.Put(digest, v)
	return v
}

func (g *Gate) check(cand *p4ir.Program, digest p4ir.Digest) Verdict {
	diags := Lint(cand, WithParams(g.pm))
	if diags.HasErrors() {
		return Verdict{Diags: diags, Refusal: "static analysis: " + diags.Errors()[0].String()}
	}
	if g.v == nil {
		return Verdict{Diags: diags}
	}
	if cand != g.v.orig {
		proof := g.v.Prove(cand, digest)
		diags = append(diags, proof...) // Lint's list is fresh: the memoized proof is only read
		if proof.HasErrors() {
			diags.Sort()
			return Verdict{Diags: diags, Refusal: "semantic verification: " + proof.Errors()[0].String()}
		}
	}
	if g.v.IsDeep() {
		diags = append(diags, LintDeep(cand)...)
	}
	diags.Sort()
	return Verdict{Diags: diags}
}

// EntriesChanged tells the gate that the original's table entries were
// mutated in place: every remembered verdict goes, the verifier's
// included.
func (g *Gate) EntriesChanged() {
	g.verdicts.Reset()
	if g.v != nil {
		g.v.EntriesChanged()
	}
}

// MemoStats returns how many checks were answered from the memo and how
// many ran the tiers.
func (g *Gate) MemoStats() (hits, misses uint64) { return g.verdicts.Stats() }
