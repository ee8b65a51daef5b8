package costmodel

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
	"pipeleon/internal/stats"
)

func exactChain(t *testing.T, n, prims int) *p4ir.Program {
	t.Helper()
	specs := make([]p4ir.TableSpec, n)
	for i := 0; i < n; i++ {
		var ps []p4ir.Primitive
		for j := 0; j < prims; j++ {
			ps = append(ps, p4ir.Prim("modify_field", fmt.Sprintf("meta.f%d", j), "1"))
		}
		specs[i] = p4ir.TableSpec{
			Name:    fmt.Sprintf("t%d", i),
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NewAction("act", ps...)},
		}
	}
	prog, err := p4ir.ChainTables("chain", specs)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func TestTableLatencyEquation(t *testing.T) {
	pm := Params{Lmat: 10, Lact: 2}
	tbl := &p4ir.Table{
		Name: "x",
		Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchExact}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("a1", p4ir.Prim("no_op"), p4ir.Prim("no_op"), p4ir.Prim("no_op")), // n=3
			p4ir.NewAction("a2", p4ir.Prim("no_op")),                                         // n=1
		},
	}
	probs := map[string]float64{"a1": 0.25, "a2": 0.75}
	// L = 1*10 + (0.25*3 + 0.75*1)*2 = 10 + 3 = 13
	k := pm.Kernel()
	if got := k.tableLatency(tbl, probs); math.Abs(got-13) > 1e-9 {
		t.Errorf("TableLatency = %v, want 13", got)
	}
}

func TestLatencyScalesLinearlyWithTables(t *testing.T) {
	pm := Params{Lmat: 10, Lact: 2}
	prof := profile.New()
	l10 := ExpectedLatency(exactChain(t, 10, 2), prof, pm)
	l20 := ExpectedLatency(exactChain(t, 20, 2), prof, pm)
	l40 := ExpectedLatency(exactChain(t, 40, 2), prof, pm)
	perTable := 10.0 + 2*2
	if math.Abs(l10-10*perTable) > 1e-9 {
		t.Errorf("L(10) = %v, want %v", l10, 10*perTable)
	}
	if math.Abs(l20-2*l10) > 1e-9 || math.Abs(l40-4*l10) > 1e-9 {
		t.Errorf("latency not linear: %v %v %v", l10, l20, l40)
	}
}

func TestLPMAndTernaryMoreExpensive(t *testing.T) {
	pm := BlueField2()
	prof := profile.New()
	mk := func(kind p4ir.MatchKind) *p4ir.Program {
		prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{{
			Name:    "t0",
			Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: kind}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	le := ExpectedLatency(mk(p4ir.MatchExact), prof, pm)
	ll := ExpectedLatency(mk(p4ir.MatchLPM), prof, pm)
	lt := ExpectedLatency(mk(p4ir.MatchTernary), prof, pm)
	if !(le < ll && ll < lt) {
		t.Errorf("want exact < lpm < ternary, got %v %v %v", le, ll, lt)
	}
	// Defaults: LPM m=3, ternary m=5.
	if math.Abs(ll-le-2*pm.Lmat) > 1e-9 {
		t.Errorf("LPM should cost 2 extra probes: %v vs %v", ll, le)
	}
	if math.Abs(lt-le-4*pm.Lmat) > 1e-9 {
		t.Errorf("ternary should cost 4 extra probes: %v vs %v", lt, le)
	}
}

func TestEmulatedNICFixedM(t *testing.T) {
	pm := EmulatedNIC()
	k := pm.Kernel()
	tern := &p4ir.Table{Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchTernary}}}
	lpm := &p4ir.Table{Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchLPM}}}
	mt, _ := k.Match(tern)
	ml, _ := k.Match(lpm)
	if mt != 3 || ml != 3 {
		t.Errorf("emulated NIC should fix m=3 for LPM and ternary, got %d/%d", ml, mt)
	}
	if got, want := k.Cond, 0.1*pm.Lmat; math.Abs(got-want) > 1e-9 {
		t.Errorf("branch cost = %v, want 1/10 of exact probe %v", got, want)
	}
}

func TestDropShortensExpectedLatency(t *testing.T) {
	pm := Params{Lmat: 10, Lact: 2}
	prog, err := p4ir.ChainTables("p", []p4ir.TableSpec{
		{Name: "acl", Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")}},
		{Name: "t1", Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}},
		{Name: "t2", Keys: []p4ir.Key{{Field: "a.b", Kind: p4ir.MatchExact}},
			Actions: []*p4ir.Action{p4ir.NoopAction("n")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 90; i++ {
		rec.Action("acl", "drop_packet")
	}
	for i := 0; i < 10; i++ {
		rec.Action("acl", "allow")
	}
	heavyDrop := ExpectedLatency(prog, col.Snapshot(), pm)

	col2 := profile.NewCollector()

	rec2 := profiletest.NewRecorder(col2)
	for i := 0; i < 10; i++ {
		rec2.Action("acl", "drop_packet")
	}
	for i := 0; i < 90; i++ {
		rec2.Action("acl", "allow")
	}
	lightDrop := ExpectedLatency(prog, col2.Snapshot(), pm)
	if heavyDrop >= lightDrop {
		t.Errorf("heavy dropping should lower expected latency: %v vs %v", heavyDrop, lightDrop)
	}
}

// Property: propagation equals path enumeration on random small DAGs.
func TestExpectedLatencyMatchesPathEnumeration(t *testing.T) {
	rng := stats.NewRNG(1234)
	for trial := 0; trial < 50; trial++ {
		prog, prof := randomProgram(t, rng)
		pm := Params{Lmat: 10, Lact: 2, BranchFactor: 0.1}
		paths, err := EnumeratePaths(prog, prof, pm)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		byPaths := ExpectedFromPaths(paths)
		byProp := ExpectedLatency(prog, prof, pm)
		if math.Abs(byPaths-byProp) > 1e-6*(1+math.Abs(byPaths)) {
			t.Fatalf("trial %d: path sum %v != propagation %v\n%s", trial, byPaths, byProp, prog.Graphviz())
		}
		// Path probabilities must sum to 1.
		var probSum float64
		for _, p := range paths {
			probSum += p.Prob
		}
		if math.Abs(probSum-1) > 1e-9 {
			t.Fatalf("trial %d: path probs sum to %v", trial, probSum)
		}
	}
}

// Path enumeration: the literal Equation 1, kept as the oracle
// TestExpectedLatencyMatchesPathEnumeration checks ExpectedLatency's
// propagation against (moved here verbatim from the package).

// WeightedPath is one execution path with its probability and latency.
type WeightedPath struct {
	Nodes   []string
	Prob    float64
	Latency float64
}

// MaxEnumerationPaths bounds EnumeratePaths output to keep validation
// tractable; programs beyond it should use ExpectedLatency.
const MaxEnumerationPaths = 1 << 16

// EnumeratePaths expands every root-to-termination execution path with its
// probability and latency. Paths terminate at the sink or at a dropping
// action. Per the paper footnote, a switch-case table contributes only the
// cost of the action leading to the current path, which the expansion
// handles naturally by splitting per action.
func EnumeratePaths(prog *p4ir.Program, prof *profile.Profile, pm Params) ([]WeightedPath, error) {
	k := pm.Kernel()
	var out []WeightedPath
	var walk func(name string, nodes []string, prob, lat float64) error
	walk = func(name string, nodes []string, prob, lat float64) error {
		if prob == 0 {
			return nil
		}
		if name == "" {
			out = append(out, WeightedPath{Nodes: append([]string(nil), nodes...), Prob: prob, Latency: lat})
			if len(out) > MaxEnumerationPaths {
				return fmt.Errorf("costmodel: more than %d paths", MaxEnumerationPaths)
			}
			return nil
		}
		t, c := prog.Node(name)
		nodes = append(nodes, name)
		switch {
		case t != nil:
			probs := prof.ActionProb(t)
			m, _ := k.Match(t)
			match := float64(m) * k.Mat
			for _, a := range t.Actions {
				pa := probs[a.Name]
				if pa == 0 {
					continue
				}
				actLat := float64(a.NumPrimitives()) * k.Act
				nextLat := lat + match + actLat
				if a.Drops() {
					// Drop terminates the path here.
					out = append(out, WeightedPath{Nodes: append([]string(nil), nodes...), Prob: prob * pa, Latency: nextLat})
					if len(out) > MaxEnumerationPaths {
						return fmt.Errorf("costmodel: more than %d paths", MaxEnumerationPaths)
					}
					continue
				}
				if err := walk(t.NextFor(a.Name), nodes, prob*pa, nextLat); err != nil {
					return err
				}
			}
		case c != nil:
			pt := prof.BranchProb(name)
			l := lat + k.Cond
			if err := walk(c.TrueNext, nodes, prob*pt, l); err != nil {
				return err
			}
			if err := walk(c.FalseNext, nodes, prob*(1-pt), l); err != nil {
				return err
			}
		default:
			return fmt.Errorf("costmodel: missing node %q", name)
		}
		return nil
	}
	if err := walk(prog.Root, nil, 1, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// ExpectedFromPaths sums P(π)·L(π) over enumerated paths — the literal
// Equation 1, used to cross-check ExpectedLatency.
func ExpectedFromPaths(paths []WeightedPath) float64 {
	var total float64
	for _, p := range paths {
		total += p.Prob * p.Latency
	}
	return total
}

// randomProgram builds a random layered DAG with tables (some dropping,
// some switch-case) and conditionals, plus a random profile.
func randomProgram(t *testing.T, rng *stats.RNG) (*p4ir.Program, *profile.Profile) {
	t.Helper()
	depth := 2 + rng.Intn(5)
	b := p4ir.NewBuilder("rand")
	names := make([]string, depth+1)
	for i := 0; i <= depth; i++ {
		names[i] = fmt.Sprintf("n%d", i)
	}
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < depth; i++ {
		next := names[i+1]
		if i == depth-1 {
			next = "" // last node sinks
		}
		switch rng.Intn(3) {
		case 0: // plain table, maybe dropping
			acts := []*p4ir.Action{p4ir.NoopAction("fwd")}
			if rng.Intn(2) == 0 {
				acts = append(acts, p4ir.DropAction())
			}
			b.Table(p4ir.TableSpec{Name: names[i],
				Keys:    []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact}},
				Actions: acts, Next: next})
			for _, a := range acts {
				for k := rng.Intn(50); k >= 0; k-- {
					rec.Action(names[i], a.Name)
				}
			}
		case 1: // conditional: true side skips ahead when possible
			trueNext := next
			if i+2 <= depth-1 {
				trueNext = names[i+2]
			}
			b.Cond(names[i], "meta.x == 1", trueNext, next, "meta.x")
			for k := rng.Intn(60); k >= 0; k-- {
				rec.Branch(names[i], rng.Intn(2) == 0)
			}
		default: // switch-case table with two targets
			acts := []*p4ir.Action{p4ir.NoopAction("a"), p4ir.NoopAction("bb"), p4ir.DropAction()}
			an := map[string]string{"a": next, "bb": next}
			if i+2 <= depth-1 {
				an["bb"] = names[i+2]
			}
			b.Table(p4ir.TableSpec{Name: names[i],
				Keys:       []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact}},
				Actions:    acts,
				ActionNext: an})
			for _, a := range acts {
				for k := rng.Intn(40); k >= 0; k-- {
					rec.Action(names[i], a.Name)
				}
			}
		}
	}
	b.Root(names[0])
	prog := b.MustBuild()
	// Trim unreferenced trailing node if last layer was skipped over.
	return prog, col.Snapshot()
}

func TestThroughputCapsAtLineRate(t *testing.T) {
	pm := BlueField2()
	if got := pm.ThroughputGbps(1, 512); got != pm.LineRateGbps {
		t.Errorf("tiny latency should hit line rate, got %v", got)
	}
	slow := pm.ThroughputGbps(10000, 512)
	if slow >= pm.LineRateGbps {
		t.Errorf("10us latency should be below line rate, got %v", slow)
	}
	// 10 us, 16 cores: 1.6 Mpps * 4096 bits = 6.55 Gbps.
	if math.Abs(slow-6.5536) > 0.001 {
		t.Errorf("throughput = %v, want 6.5536", slow)
	}
}

func TestThroughputMonotoneInLatency(t *testing.T) {
	pm := AgilioCX()
	f := func(a, b uint16) bool {
		la, lb := float64(a)+1, float64(b)+1
		if la > lb {
			la, lb = lb, la
		}
		return pm.ThroughputGbps(la, 512)+1e-12 >= pm.ThroughputGbps(lb, 512)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLatencyFloor(t *testing.T) {
	pm := BlueField2()
	// The per-packet latency at which the target first saturates its line
	// rate for 512-byte packets: the line-rate plateaus of Figures 9a-9c.
	floor := float64(pm.Cores) * 512 * 8 / pm.LineRateGbps
	if got := pm.ThroughputGbps(floor, 512); math.Abs(got-pm.LineRateGbps) > 1e-6 {
		t.Errorf("at floor latency throughput = %v, want line rate", got)
	}
	if got := pm.ThroughputGbps(floor*1.01, 512); got >= pm.LineRateGbps {
		t.Errorf("just above floor should dip below line rate, got %v", got)
	}
}

func TestCalibrateRecoversConstants(t *testing.T) {
	// Synthesize "measurements" from a known ground truth and check the
	// regression recovers it. Suite: exact tables with 2 primitives each.
	const trueLmat, trueLact = 25.0, 5.0
	actPerTable := 2 * trueLact
	var exactSweep, primSweep, lpmObs, ternObs []Observation
	for n := 10; n <= 40; n += 2 {
		exactSweep = append(exactSweep, Observation{X: float64(n), LatencyNs: float64(n) * (trueLmat + actPerTable)})
	}
	const primTables = 20
	for pcount := 2; pcount <= 8; pcount++ {
		primSweep = append(primSweep, Observation{X: float64(pcount),
			LatencyNs: primTables * (trueLmat + float64(pcount)*trueLact)})
	}
	for n := 10; n <= 16; n++ {
		lpmObs = append(lpmObs, Observation{X: float64(n), LatencyNs: float64(n) * (3*trueLmat + actPerTable)})
		ternObs = append(ternObs, Observation{X: float64(n), LatencyNs: float64(n) * (5*trueLmat + actPerTable)})
	}
	cal, err := Calibrate(exactSweep, primSweep, actPerTable, primTables, lpmObs, ternObs, exactSweep)
	if err != nil {
		t.Fatalf("Calibrate: %v", err)
	}
	if math.Abs(cal.Lmat-trueLmat) > 1e-6 {
		t.Errorf("Lmat = %v, want %v", cal.Lmat, trueLmat)
	}
	if math.Abs(cal.Lact-trueLact) > 1e-6 {
		t.Errorf("Lact = %v, want %v", cal.Lact, trueLact)
	}
	if math.Abs(cal.LPMM-3) > 1e-6 {
		t.Errorf("LPM m = %v, want 3", cal.LPMM)
	}
	if math.Abs(cal.TernaryM-5) > 1e-6 {
		t.Errorf("ternary m = %v, want 5", cal.TernaryM)
	}
	pm := cal.Apply(Params{Lmat: 1, Lact: 1})
	if pm.Lmat != cal.Lmat || pm.Lact != cal.Lact {
		t.Error("Apply did not overwrite constants")
	}
}

func TestByNameFindsEveryPreset(t *testing.T) {
	for _, preset := range []Params{BlueField2(), AgilioCX(), EmulatedNIC()} {
		if got, ok := ByName(preset.Name); !ok || got != preset {
			t.Errorf("ByName(%q) = %+v, %v; want the %s preset", preset.Name, got, ok, preset.Name)
		}
	}
	if _, ok := ByName("tofino"); ok {
		t.Error("ByName found a preset nobody defined")
	}
	if _, ok := ByName(""); ok {
		t.Error("ByName matched the empty name")
	}
}
