package analysis

import (
	"sync"
	"sync/atomic"

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
//  1. structure — the candidate's own p4ir invariants;
//  2. dependency ordering — RewriteChecker: every ordering of the original
//     survives modulo the declared rewrites (RW0xx);
//  3. semantics, behind a deep verifier only — SemanticChecker: per path
//     class, the same drop behaviour and egress field ranges (SE0xx).
//
// A later tier runs only when the earlier ones found no error, so a
// refused program reports the first failing tier's findings.
//
// Tiers 1 and 2 read the original's structure and effects; tier 3 also
// reads its table entries, which the original's owner mutates in place
// (the runtime's entry API) and announces through EntriesChanged. The
// owner must not change entries while a proof runs — that races on the
// program itself. Proofs are safe for concurrent use.
type Verifier struct {
	orig *p4ir.Program
	rc   *RewriteChecker
	deep bool

	epoch atomic.Uint64 // entry changes announced
	// verdicts maps (entry epoch, candidate content digest) to the
	// diagnostics Prove produced. The digest is cryptographic because a hit
	// skips the proof: a collision between a verified and a broken
	// candidate would deploy the broken one unproven.
	verdicts *memo.Table[proofKey, diag.List]

	mu    sync.Mutex       // guards the fields below
	sc    *SemanticChecker // nil unless deep
	built uint64           // epoch sc was built, and verdicts last emptied, at
}

type proofKey struct {
	epoch  uint64
	digest p4ir.Digest
}

// NewVerifier precomputes what the proofs need of the original.
func NewVerifier(orig *p4ir.Program, deep bool) *Verifier {
	v := &Verifier{orig: orig, rc: NewRewriteChecker(orig), deep: deep, verdicts: memo.New[proofKey, diag.List](proofMemoCap)}
	if deep {
		v.sc = NewSemanticChecker(orig)
	}
	return v
}

// IsDeep reports whether the semantic tier is on.
func (v *Verifier) IsDeep() bool { return v.deep }

// EntriesChanged announces that the original's table entries were mutated
// in place. The next proof starts over, so a burst of updates costs once.
func (v *Verifier) EntriesChanged() { v.epoch.Add(1) }

// Epoch counts the entry changes announced so far. A caller that keeps
// verdicts of its own compares it to know when a deep verdict is stale.
func (v *Verifier) Epoch() uint64 { return v.epoch.Load() }

// current returns the semantic checker for the original's current entries
// and their epoch, first dropping what an entry change outdated. A proof
// that began before the change files its verdict under the epoch it read,
// where no later proof looks.
func (v *Verifier) current() (*SemanticChecker, uint64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if e := v.epoch.Load(); e != v.built {
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
// program is proven once per entry epoch. The returned list is shared with
// the memo and must not be modified.
func (v *Verifier) Prove(cand *p4ir.Program, digest p4ir.Digest) diag.List {
	sc, epoch := v.current()
	key := proofKey{epoch, digest}
	if l, ok := v.verdicts.Get(key); ok {
		return l
	}
	l := v.prove(sc, cand, nil)
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
	return v.prove(sc, scratch, touched)
}

// prove runs the tiers once; a nil touched checks every dependency edge.
func (v *Verifier) prove(sc *SemanticChecker, cand *p4ir.Program, touched map[string]bool) diag.List {
	l := v.rc.verify(cand, touched) // structure, then dependency ordering
	if sc != nil && !l.HasErrors() {
		l = append(l, sc.Verify(cand)...)
	}
	return l
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
