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
	// tier that refused and its first error: "static analysis: PL105 ..."
	// for the lint, "semantic verification: SE003 ..." for the proof.
	Refusal string
}

// Gate is the check every program passes on its way to a device. A
// runtime has one path there — the original at construction, a round's
// plan, and the program an entry operation regenerates all go through
// it — and asks its gate on that path; a server asks its own about every
// program it receives over the wire. The tiers:
//
//  1. Lint's rules under the device's cost-model parameters. It is a tier
//     of the gate and not of the Verifier because it judges a program on
//     one device, while a proof holds on any device and is memoized by the
//     candidate's digest alone.
//  2. Verifier.Prove, when the gate has an original and the candidate is
//     not that very program.
//  3. LintDeep's warnings, behind a deep verifier.
//
// An error ends the check at its tier. Every tier is a deterministic
// function of the device's parameters, the original and the candidate, so
// verdicts are memoized under the candidate's digest and the original's
// entry version, as the verifier's proofs are: a verdict reached before an
// entry operation on the original is never found after it. Safe for
// concurrent use.
type Gate struct {
	pm       costmodel.Params
	v        *Verifier // nil: no original to prove against, lint only
	verdicts *memo.Table[proofKey, Verdict]
}

// NewGate returns the gate of a device with parameters pm. v proves
// candidates against its original and may be nil.
func NewGate(pm costmodel.Params, v *Verifier) *Gate {
	return &Gate{pm: pm, v: v, verdicts: memo.New[proofKey, Verdict](gateMemoCap)}
}

// Check returns the gate's verdict on cand; digest must be cand.Digest().
// cand is well formed, checked by its maker (opt.Apply, p4ir.DecodeBinary,
// opt.NewSession for the original): the gate does not check it again.
func (g *Gate) Check(cand *p4ir.Program, digest p4ir.Digest) Verdict {
	key := proofKey{digest: digest}
	if g.v != nil {
		key.version = g.v.orig.EntryVersion() // read before any proof reads the entries
	}
	if v, ok := g.verdicts.Get(key); ok {
		return v
	}
	v := g.check(cand, digest)
	g.verdicts.Put(key, v)
	return v
}

func (g *Gate) check(cand *p4ir.Program, digest p4ir.Digest) Verdict {
	diags := lintRules(cand, config{pm: g.pm, hasParams: true})
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
		diags = append(diags, g.v.lintDeep(cand)...)
	}
	diags.Sort()
	return Verdict{Diags: diags}
}

// MemoStats returns how many checks were answered from the memo and how
// many ran the tiers.
func (g *Gate) MemoStats() (hits, misses uint64) { return g.verdicts.Stats() }
