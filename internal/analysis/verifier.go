package analysis

import (
	"sync"

	"pipeleon/internal/diag"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
)

// proofMemoCap bounds a verifier's whole-program verdict memo. A control
// loop asks about the same few layouts round after round; the cap only
// stops a daemon from remembering every layout it ever proved.
const proofMemoCap = 256

// Verifier answers "is this program a sound rewrite of the original?" and
// is the one place the proof tiers are composed:
//
//  1. dependency ordering — RewriteChecker: every ordering of the original
//     survives modulo the declared rewrites (RW0xx);
//  2. semantics, behind a deep verifier only — SemanticChecker: per path
//     class, the same drop behaviour and egress field ranges (SE0xx).
//
// A later tier runs only when the earlier one found no error, so a
// refused program reports the first failing tier's findings.
//
// Tier 1 reads the original's structure and effects; tier 2 also reads
// its table entries, which the original's owner changes in place
// through p4ir's entry operations. Each proof starts by comparing the
// original's EntryVersion with the one its semantic checker was built at,
// so nobody announces a change. The owner must not change entries while a
// proof runs — that races on the program itself. Proofs are safe for
// concurrent use.
type Verifier struct {
	orig *p4ir.Program
	rc   *RewriteChecker
	deep bool

	// verdicts maps (entry version, candidate content digest) to the
	// diagnostics Prove produced. The digest is cryptographic because a hit
	// skips the proof: a collision between a verified and a broken
	// candidate would deploy the broken one unproven.
	verdicts *memo.Table[proofKey, diag.List]

	mu    sync.Mutex       // guards the fields below
	sc    *SemanticChecker // nil unless deep
	built uint64           // entry version sc was built, and verdicts last emptied, at
}

// proofKey names a verdict about a candidate: its content digest, and the
// original's entry version the verdict was reached against.
type proofKey struct {
	version uint64
	digest  p4ir.Digest
}

// NewVerifier precomputes what the proofs need of the original. It and
// every candidate are well formed: their makers checked them.
func NewVerifier(orig *p4ir.Program, deep bool) *Verifier {
	v := &Verifier{orig: orig, rc: NewRewriteChecker(orig), deep: deep,
		verdicts: memo.New[proofKey, diag.List](proofMemoCap), built: orig.EntryVersion()}
	if deep {
		v.sc = NewSemanticChecker(orig)
	}
	return v
}

// IsDeep reports whether the semantic tier is on.
func (v *Verifier) IsDeep() bool { return v.deep }

// current returns the semantic checker for the original's current entries
// and their version, first dropping what an entry change outdated: the
// next proof after a burst of updates starts over once. A proof that began
// before the change files its verdict under the version it read, where no
// later proof looks.
func (v *Verifier) current() (*SemanticChecker, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.orig.EntryVersion(); e != v.built {
		v.built = e
		v.verdicts.Reset()
		if v.deep {
			v.sc = NewSemanticChecker(v.orig)
		}
	}
	return v.sc, v.built
}

// Prove runs the tiers over a whole candidate program and returns every
// diagnostic of the last tier reached; the candidate is a sound rewrite
// when none is an error. digest must be cand.Digest() — callers have
// computed it to compare layouts — and keys the memo: each distinct
// program is proven once per entry version of the original. The returned
// list is shared with the memo and must not be modified.
func (v *Verifier) Prove(cand *p4ir.Program, digest p4ir.Digest) diag.List {
	sc, version := v.current()
	key := proofKey{version, digest}
	if l, ok := v.verdicts.Get(key); ok {
		return l
	}
	l, semantic := v.prove(sc, cand, nil)
	if semantic {
		// How strong the proof was, whatever its verdict: a refusal under
		// a coarsened partition may be the coarsening's.
		if forced, total := sc.Strength(); forced < total {
			l.Add(CodeSemCoarse, diag.Info, "", "",
				"path classes fork on %d of %d conditionals; the other %d contribute both arms to every class",
				forced, total, total-forced)
		}
	}
	v.verdicts.Put(key, l)
	return l
}

// ProveTouched is Prove for one rewrite applied alone to a scratch copy
// of the original, at search time: the dependency tier checks only edges
// with an endpoint in touched (see RewriteChecker.verify for when that is
// exact). Nothing is memoized: the caller knows the rewrite by a cheaper
// name than the scratch program's digest.
func (v *Verifier) ProveTouched(scratch *p4ir.Program, touched map[string]bool) diag.List {
	sc, _ := v.current()
	l, _ := v.prove(sc, scratch, touched)
	return l
}

// prove runs the tiers once; a nil touched checks every dependency edge.
// semantic reports that the semantic tier ran.
func (v *Verifier) prove(sc *SemanticChecker, cand *p4ir.Program, touched map[string]bool) (l diag.List, semantic bool) {
	l = v.rc.verify(cand, touched) // dependency ordering
	if sc == nil || l.HasErrors() {
		return l, false
	}
	return append(l, sc.Verify(cand)...), true
}

// lintDeep is LintDeep(cand) reading the original's compiled tables, which
// the semantic checker of the current entries holds: a deep verifier's only.
func (v *Verifier) lintDeep(cand *p4ir.Program) diag.List {
	sc, _ := v.current()
	return lintDeep(cand, sc.tables)
}

// MemoStats returns how many Prove calls were answered from the memo and
// how many ran the tiers, over the verifier's lifetime.
func (v *Verifier) MemoStats() (hits, misses uint64) { return v.verdicts.Stats() }

// Strength reports how fine the semantic tier's path-class partition is
// (SemanticChecker.Strength); zeros for a shallow verifier.
func (v *Verifier) Strength() (forced, total int) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.sc == nil {
		return 0, 0
	}
	return v.sc.Strength()
}
