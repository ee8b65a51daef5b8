package absint

// DiffAgainstReference exposes the oracle comparison to the external test
// package, which may import the optimizer (opt imports this package).
var DiffAgainstReference = diffAgainstReference

// DiffCachedAgainstReference is diffCachedAgainstReference, exported the
// same way.
var DiffCachedAgainstReference = diffCachedAgainstReference

// BenchProgram is the 54-table program of the micro-benchmarks.
var BenchProgram = benchProgram

// MayMatch is mayMatch for a key of width w.
func (v Value) MayMatch(mask, val uint64, w int) bool {
	return v.mayMatch(mask, val, maskMonotone(mask, w))
}

// MustMatch is mustMatch for a key of width w.
func (v Value) MustMatch(mask, val uint64, w int) bool {
	return v.mustMatch(mask, val, maskMonotone(mask, w))
}

// Fields lists the fields the state tracks explicitly (every field its
// program mentions); all others hold their default.
func (s *State) Fields() []string {
	if s == nil {
		return nil
	}
	return s.fields.names
}
