//go:build !race

package pipeleon

const raceEnabled = false
