package p4ir

import "strconv"

// Execution-tier placement annotations: a program arriving from outside
// may pin tables to tiers, and the runtime (nicsim), the verifier
// (analysis) and offline tools all read this one canonical encoding. Tiers are small
// integers (0 = fastest / ASIC-side); their semantics live in
// internal/costmodel — this package only stores them.
const (
	// AnnotTier assigns the table to an execution tier (decimal integer,
	// 0 = ASIC). Absent means "tier TierFloor()", i.e. the lowest tier
	// the table supports.
	AnnotTier = "pipeleon.tier"
	// AnnotTierCopy marks a table that is replicated on every tier a
	// packet may arrive from ("1"), so reaching it never migrates the
	// packet (Appendix A.2 table copying, generalized to N tiers).
	AnnotTierCopy = "pipeleon.tier_copy"
)

// TierAssignment returns the table's annotated execution tier and
// whether the annotation is present and well-formed. Absent or
// malformed annotations return (0, false); the verifier flags
// malformed values separately (RW007).
func (t *Table) TierAssignment() (int, bool) {
	v, ok := t.Annotations[AnnotTier]
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// TierCopied reports whether the table is annotated as replicated
// across tiers.
func (t *Table) TierCopied() bool {
	return t.Annotations[AnnotTierCopy] == "1"
}
