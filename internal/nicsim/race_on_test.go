//go:build race

package nicsim

// raceEnabled: the detector slows the corpus sweeps tenfold, and they are
// single-goroutine; they thin their corpus under it.
const raceEnabled = true
