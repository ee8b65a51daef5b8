package main

import (
	"fmt"
	"os"
	"sort"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// dashSource is read relative to the working directory, which is the
// repository root (run.sh and the tests both arrange that).
const dashSource = "testdata/dash.p4"

// Sizes the issue fixes; only window counts scale with -seconds.
const (
	dashFlows      = 20000
	dashConntrack  = 2000
	dashACLEntries = 512
	dashRoutes     = 256
	churnPairs     = 16 // insert+delete pairs per churn chunk
	oraclePackets  = 4096
)

// workload is one closed-loop scenario: the same window loop over a
// different program, traffic and management path.
type workload struct {
	name string
	why  string
	// windowsPerSec sizes the run: windows = windowsPerSec × -seconds,
	// calibrated on the 2-core reference box so the window loop (managed
	// device, twin and generation together) takes about -seconds.
	// Work is fixed by this product, never by a deadline, so run_s and
	// the simulated metrics compare across commits.
	windowsPerSec float64
	packets       int // per device per window
	chunks        int // Measure calls per window
	devices       int // 1 = core.Runtime on a Local; >1 = fleet over loopback
	verifyPackets int
	rotate        int // windows per traffic mix; 0 = a single mix
	// mixOrder is the order the four mixes rotate in; nil = as generated.
	// synth-proof rotates every window and needs an order in which the two
	// uniform mixes never follow each other: that step moves the profile
	// by about ProfileChangeThreshold, and whether its round is skipped
	// (0.5 ms) or searched (300 ms) then depends on the seed (README).
	mixOrder []int
	churn    bool // entry churn before every chunk in the middle third of the windows
	deep     bool // opt.Config.DeepVerify
	dash     bool // testdata/dash.p4 with baked entries; otherwise synth
	pipelets int  // synth.ProgramSpec.Pipelets
}

var workloads = []*workload{
	{
		name: "dash-steady", dash: true,
		why:           "datapath-bound: packet+nicsim+profile do the work, rounds are skipped or re-score one cache, so a search gain must not show here",
		windowsPerSec: 5.5, packets: 65536, chunks: 8, devices: 1, verifyPackets: 256,
	},
	{
		name: "dash-churn", dash: true, churn: true,
		why:           "dash-steady plus conntrack entry churn: plan rebuild, cache invalidation and update-rate feedback; bypassed by dash-steady",
		windowsPerSec: 3.4, packets: 65536, chunks: 8, devices: 1, verifyPackets: 256,
	},
	{
		name: "synth-shift", pipelets: 40,
		why:           "search- and deploy-bound: 110 tables, the traffic mix rotates every second window so nearly every round searches and a quarter swap; bypassed by dash-steady",
		windowsPerSec: 8, packets: 4096, chunks: 1, devices: 1, verifyPackets: 256, rotate: 2,
	},
	{
		name: "synth-proof", pipelets: 20, deep: true,
		why:           "proof-bound: DeepVerify on, analysis.VerifySemantics/absint dominate a round; bypassed by synth-shift",
		windowsPerSec: 2.2, packets: 8192, chunks: 1, devices: 1, verifyPackets: 256, rotate: 1,
		mixOrder: []int{0, 1, 3, 2},
	},
	{
		name: "fleet-remote", pipelets: 16,
		why:           "control-plane-bound: four devices over loopback RPC, staged rollout, plan cache and session pool; search is small",
		windowsPerSec: 5.8, packets: 2000, chunks: 1, devices: 4, verifyPackets: 128, rotate: 5,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// windows returns the window count for a run of the given length.
func (w *workload) windows(seconds float64) int {
	n := int(w.windowsPerSec*seconds + 0.5)
	// Three windows is the least the churn thirds and the mix rotation
	// need to each happen once.
	if n < 3 {
		n = 3
	}
	return n
}

// inputs is everything a run derives from -seed before any timed region:
// the traffic mixes, the entries baked into the dash program, and the
// conntrack entries dash-churn inserts and deletes.
type inputs struct {
	seed        uint64
	mixes       []*trafficgen.Generator
	dashEntries map[string][]p4ir.Entry
	churnKeys   []p4ir.Entry
}

const churnTable = "conntrack"

func (w *workload) inputs(seed uint64) *inputs {
	in := &inputs{seed: seed}
	// stream only keeps the generators' sampling seeds apart.
	gen := func(stream uint64, skew float64, flows []trafficgen.Flow) {
		g := trafficgen.New(stats.Mix64(seed*8+stream), trafficgen.DefaultPacketBytes)
		g.AddFlows(flows...)
		g.SetSkew(skew)
		in.mixes = append(in.mixes, g)
	}
	if w.dash {
		flows := trafficgen.UniformFlows(seed, dashFlows)
		gen(0, 0.9, flows)
		in.dashEntries = dashEntries(flows)
		for _, f := range flows[dashConntrack:] {
			in.churnKeys = append(in.churnKeys, conntrackEntry(f))
		}
		return in
	}
	// The four mixes the synth workloads rotate through: each moves the
	// per-pipelet costs past ProfileChangeThreshold relative to the last.
	// Small populations, so a window samples each mix well and the plans
	// follow the mix, not the sampling noise. The populations
	// are fixed like the program: -seed draws the packets from them, so
	// the runs of different seeds search for plans over the same traffic
	// classes and differ by sampling alone.
	gen(0, 0.9, trafficgen.UniformFlows(synthSeed+1, 128))
	gen(1, 0.9, trafficgen.DropTargetedFlows(synthSeed+2, 128, "tcp.dport", 23, 0.6))
	gen(2, 0.5, trafficgen.CrossProductFlows(synthSeed+3, 512, map[string]int{
		"ipv4.srcAddr": 4096, "ipv4.dstAddr": 4096, "tcp.sport": 1024, "tcp.dport": 512,
		"ipv4.tos": 64, "ipv4.ttl": 64,
	}))
	gen(3, 0.2, trafficgen.UniformFlows(synthSeed+4, 128))
	if w.mixOrder != nil {
		natural := in.mixes
		in.mixes = nil
		for _, i := range w.mixOrder {
			in.mixes = append(in.mixes, natural[i])
		}
	}
	return in
}

// synthSeed fixes the synthesized program and the flow populations of a
// non-dash workload: -seed varies the packets, not the pipeline or its
// traffic classes, so the metrics of different seeds describe the same
// system.
const synthSeed = 7

func (w *workload) synthSpec() synth.ProgramSpec {
	return synth.ProgramSpec{Pipelets: w.pipelets, AvgLen: 3, Category: synth.Mixed, Seed: synthSeed}
}

// program loads the workload's original program the way a user would:
// dash through the P4 frontend with the generated entries appended,
// the others through the synthesizer. It is part of the timed set-up.
func (w *workload) program(in *inputs) (*p4ir.Program, error) {
	if !w.dash {
		return synth.Program(w.synthSpec()), nil
	}
	src, err := os.ReadFile(dashSource)
	if err != nil {
		return nil, err
	}
	prog, err := p4c.Compile(string(src))
	if err != nil {
		return nil, fmt.Errorf("compiling %s: %w", dashSource, err)
	}
	for name, entries := range in.dashEntries {
		t := prog.Tables[name]
		if t == nil {
			return nil, fmt.Errorf("%s has no table %q", dashSource, name)
		}
		t.Entries = append(t.Entries, entries...)
	}
	return prog, nil
}

// freshEntry returns a table of prog and an entry it does not hold yet,
// for timing one insert+delete outside the windows: conntrack on DASH,
// otherwise the first exact table by name whose key is wide enough to have
// an unused value.
func (in *inputs) freshEntry(prog *p4ir.Program) (string, p4ir.Entry, error) {
	if len(in.churnKeys) > 0 {
		return churnTable, in.churnKeys[0], nil
	}
	names := make([]string, 0, len(prog.Tables))
	for name := range prog.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t := prog.Tables[name]
		if len(t.Keys) != 1 || t.Keys[0].Kind != p4ir.MatchExact || t.Keys[0].BitWidth() < 16 ||
			t.IsSwitchCase() || t.Action("act_main") == nil {
			continue
		}
		used := map[uint64]bool{}
		for _, e := range t.Entries {
			used[e.Match[0].Value] = true
		}
		v := t.Keys[0].FullMask()
		for used[v] {
			v--
		}
		return name, p4ir.Entry{Match: []p4ir.MatchValue{{Value: v}}, Action: "act_main"}, nil
	}
	return "", p4ir.Entry{}, fmt.Errorf("program %s has no exact table to write to", prog.Name)
}

func conntrackEntry(f trafficgen.Flow) p4ir.Entry {
	return p4ir.Entry{
		Match:  []p4ir.MatchValue{{Value: uint64(f.Src)}, {Value: uint64(f.SPort)}},
		Action: "track",
	}
}

// dashEntries derives the DASH tables' contents from the flow population,
// so the tables see hits: conntrack holds the 2 000 hottest flows, the two
// address ACLs hold 512 ternary entries each over four mask classes with
// every eighth entry denying, and routing holds 256 LPM routes over three
// prefix lengths.
func dashEntries(flows []trafficgen.Flow) map[string][]p4ir.Entry {
	out := map[string][]p4ir.Entry{}
	for _, f := range flows[:dashConntrack] {
		out["conntrack"] = append(out["conntrack"], conntrackEntry(f))
	}
	masks := []uint64{0xffffffff, 0xffffff00, 0xfffff000, 0xffff0000}
	acl := func(table string, addr func(trafficgen.Flow) uint32) {
		seen := map[[2]uint64]bool{}
		for i := 0; len(out[table]) < dashACLEntries; i++ {
			mask := masks[i%len(masks)]
			v := uint64(addr(flows[(i*37)%len(flows)])) & mask
			if seen[[2]uint64{v, mask}] {
				continue
			}
			seen[[2]uint64{v, mask}] = true
			action := "permit"
			if i%8 == 0 {
				action = "deny"
			}
			// Priority follows specificity, so no entry is shadowed by a
			// coarser one.
			out[table] = append(out[table], p4ir.Entry{
				Priority: 10 * (len(masks) - i%len(masks)),
				Match:    []p4ir.MatchValue{{Value: v, Mask: mask}},
				Action:   action,
			})
		}
	}
	acl("acl_level1", func(f trafficgen.Flow) uint32 { return f.Src })
	acl("acl_level2", func(f trafficgen.Flow) uint32 { return f.Dst })
	plens := []int{24, 20, 16}
	seen := map[[2]uint64]bool{}
	for i := 0; len(out["routing"]) < dashRoutes; i++ {
		plen := plens[i%len(plens)]
		v := uint64(flows[(i*53)%len(flows)].Dst) &^ (1<<(32-plen) - 1)
		if seen[[2]uint64{v, uint64(plen)}] {
			continue
		}
		seen[[2]uint64{v, uint64(plen)}] = true
		out["routing"] = append(out["routing"], p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: v, PrefixLen: plen}},
			Action: "fwd",
			Args:   []string{fmt.Sprint(2 + i%6)},
		})
	}
	return out
}

// nicConfig is the emulator configuration every device and twin shares
// (what nicd runs by default, plus the 1 % measurement noise of fig5).
func nicConfig(seed uint64, col *profile.Collector, instrument bool) nicsim.Config {
	return nicsim.Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: instrument,
		Seed: seed, NoiseStdDev: 0.01, CacheFillCostNs: 500,
	}
}
