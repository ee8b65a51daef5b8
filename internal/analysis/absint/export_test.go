package absint

// DiffAgainstReference exposes the oracle comparison to the external test
// package, which may import the optimizer (opt imports this package).
var DiffAgainstReference = diffAgainstReference

// BenchProgram is the 54-table program of the micro-benchmarks.
var BenchProgram = benchProgram
