package faultinject

import (
	"strings"
	"testing"
)

// FuzzParseSpec feeds arbitrary text to the parser of nicd's and fleetd's
// -fault flag. It may refuse a spec, never panic; and an injector it
// returns injects what the spec language can say: one fault at a time, a
// positive gain factor, and the same faults again for the same seed.
func FuzzParseSpec(f *testing.F) {
	f.Add("deploy.fail=0.1,conn.write.drop=0.05,counters.zero=0.02,plan.scale=0.1:20,conn.read.delay=0.1:50ms", uint64(7))
	f.Add("deploy.fail=0.3,conn.write.drop=0.4", uint64(7))
	f.Add(" probe.silent=1 ,, measure.scale=1:1e308", uint64(1))
	f.Add("deploy.fail", uint64(0))
	f.Add(".fail=1", uint64(0))
	f.Add("", uint64(0))
	points := []Point{PointDeploy, PointConnRead, PointConnWrite, PointCounters, PointPlan, PointProbe, PointMeasure}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		inj, err := ParseSpec(spec, seed)
		if err != nil {
			if inj != nil {
				t.Fatalf("ParseSpec(%q) returned an injector with error %v", spec, err)
			}
			return
		}
		if inj == nil {
			if strings.TrimSpace(spec) != "" {
				t.Fatalf("ParseSpec(%q) returned neither an injector nor an error", spec)
			}
			return
		}
		again, err := ParseSpec(spec, seed)
		if err != nil {
			t.Fatalf("ParseSpec(%q) succeeded once, then: %v", spec, err)
		}
		for i := 0; i < 64; i++ {
			p := points[i%len(points)]
			d := inj.At(p)
			if d != again.At(p) {
				t.Fatalf("ParseSpec(%q): consultation %d at %s differs between two injectors of seed %d", spec, i, p, seed)
			}
			faults := 0
			for _, set := range []bool{d.Fail, d.Silent, d.Drop, d.Zero, d.Delay != 0, d.Scale != 0} {
				if set {
					faults++
				}
			}
			if faults > 1 || d.Scale < 0 {
				t.Fatalf("ParseSpec(%q): decision %+v at %s", spec, d, p)
			}
		}
	})
}
