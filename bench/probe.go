package main

import "time"

// The reference box is two cores of a shared host, and its speed is not
// its own: for minutes at a time the same code runs a quarter to a half
// slower (CPU time grows with wall time and steal stays flat, so it is a
// busy neighbour on the core, not the scheduler). No statistic over the
// windows of one run removes that; a ruler measured next to every window
// does. The speed probe is that ruler: a fixed kernel of this package —
// map lookups, pointer chasing and branches, the instruction mix of the
// system under test, no allocation, nothing of pipeleon in it, so no change
// to the repository can move it. It runs before and after every timed
// region, and a host time is reported as
//
//	wall time × probeNominalNs ÷ (mean probe time around the region)
//
// which is the time the region would have taken at the speed at which the
// probe takes probeNominalNs. On a quiet reference box the factor is
// 0.9–1.05.
const probeNominalNs = 1e6

const probeKeys = 1 << 15

type probeEntry struct {
	v    uint64
	next *probeEntry
}

type speedProbe struct {
	keys  []uint64
	table map[uint64]*probeEntry
	sink  uint64
}

func newSpeedProbe() *speedProbe {
	p := &speedProbe{keys: make([]uint64, 0, probeKeys), table: make(map[uint64]*probeEntry, probeKeys)}
	x := uint64(0x9e3779b97f4a7c15)
	var prev *probeEntry
	for len(p.keys) < probeKeys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		e := &probeEntry{v: x, next: prev}
		prev = e
		p.table[x] = e
		p.keys = append(p.keys, x)
	}
	return p
}

// run executes the kernel twice and returns the wall time of the second
// pass in nanoseconds. The first pass pulls the probe's own megabyte back
// into the caches the timed region evicted it from: without it the probe
// reads how much memory the system under test touched, and a change to the
// system would move its own ruler.
func (p *speedProbe) run() float64 {
	p.pass()
	t0 := time.Now()
	p.pass()
	return float64(time.Since(t0))
}

func (p *speedProbe) pass() {
	var s uint64
	for _, k := range p.keys {
		e := p.table[k]
		s += e.v
		if e.next != nil && e.next.v&1 == 0 {
			s ^= e.next.v >> 3
		}
	}
	p.sink += s
}

// slowdown turns the probe times around a timed region into the factor by
// which the box ran slower than the reference speed while the region ran.
func slowdown(before, after float64) float64 {
	return (before + after) / 2 / probeNominalNs
}
