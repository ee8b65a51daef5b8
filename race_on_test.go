//go:build race

package pipeleon

// raceEnabled: under the race detector sync.Pool drops a quarter of what
// is put back, so the emulator's pooled contexts are rebuilt and an
// allocation count says nothing about the datapath.
const raceEnabled = true
