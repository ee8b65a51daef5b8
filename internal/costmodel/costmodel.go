// Package costmodel implements the approximate P4 performance model of
// paper §3.1.
//
// A program is a DAG G; any packet traverses exactly one root-to-sink path
// π. Expected program latency is
//
//	L(G) = Σ_π P(π) · L(π)                        (Equation 1)
//
// with L(π) = Σ L(v_i) over the nodes on the path and P(π) the cumulative
// product of edge probabilities. Per node,
//
//	L(v)       = Lmatch(v) + Laction(v)           (Equation 3)
//	Lmatch(v)  = m_v · Lmat                       (Equation 4a)
//	Laction(v) = Σ_a P(a) · n_a · Lact            (Equation 4b)
//
// where m_v is the number of memory accesses the key match costs (1 for
// exact; the number of distinct prefix lengths / masks for LPM / ternary),
// n_a the primitive count of action a, and Lmat/Lact constants extracted
// per target by benchmarking plus linear regression.
//
// ExpectedLatency evaluates Equation 1 by propagating reach probabilities
// over the DAG in O(V+E); the literal sum over enumerated paths lives in
// the package's tests as its oracle. Every term comes from the target's
// Kernel (kernel.go), the one place Params is turned into costs.
package costmodel

import (
	"math"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Params is the per-target parameter set of the cost model. Latencies are
// in nanoseconds.
type Params struct {
	// Name identifies the target (for reports).
	Name string
	// Lmat is the latency of one memory access — one exact-match probe.
	Lmat float64
	// Lact is the latency of one action primitive.
	Lact float64
	// BranchFactor is the cost of a conditional as a fraction of one
	// exact-match probe. The paper's emulated NIC uses 1/10 (§5.3.3);
	// hardware models round it down to ~0.
	BranchFactor float64
	// LPMFixedM / TernaryFixedM, when non-zero, override the entry-derived
	// m for LPM / ternary tables. The §5.3.3 emulated NIC model sets both
	// to 3 ("LPM and ternary matches have the same cost, which is 3x
	// slower than exact matches").
	LPMFixedM     int
	TernaryFixedM int
	// CounterUpdate is the latency of one profiling counter increment
	// (§5.4.1). Applied per instrumented node a packet traverses.
	CounterUpdate float64
	// MigrationLatency is the one-way packet migration cost between the
	// ASIC and CPU pipelines of a heterogeneous target (§3.2.4).
	MigrationLatency float64
	// Cores is the number of run-to-completion processing cores.
	Cores int
	// LineRateGbps caps achievable throughput.
	LineRateGbps float64
	// CPUSlowdown scales node latencies for tables executed on the CPU
	// pipeline of a heterogeneous target (1 = ASIC speed).
	CPUSlowdown float64
	// OffPathSlowdown scales node latencies for tables executed on the
	// off-path host/DPU tier. 0 means the target has no off-path tier
	// (Kernel.Tiers == 2). Host cores are often faster than the NIC's
	// wimpy cores, so OffPathSlowdown < CPUSlowdown is the common case —
	// the PCIe crossing, not execution speed, is the off-path tax.
	OffPathSlowdown float64
	// DMABaseNs / DMAPerPacketNs / DMABatch parameterize the off-path
	// transfer function offPathCrossNs: a crossing costs
	// DMABaseNs/batch + DMAPerPacketNs, so the doorbell/completion round
	// trip amortizes over the DMA descriptor batch while the payload
	// copy does not. DMABatch <= 0 is treated as 1 (no batching).
	DMABaseNs      float64
	DMAPerPacketNs float64
	DMABatch       int
	// UpdateStallASIC / UpdateStallCPU / UpdateStallOffPath are the
	// expected per-packet latency (ns) added per entry update/second
	// applied to a table resident on that tier (Kernel.Stall). On the
	// ASIC, installs go through the table-update engine and stall the
	// pipeline; on the NIC CPU they are cheaper software writes; off-path
	// they land in host memory — which is what makes churn-heavy stateful
	// stages gravitate off-path.
	UpdateStallASIC    float64
	UpdateStallCPU     float64
	UpdateStallOffPath float64
	// SRAMFactor scales the per-probe latency of tables pinned to the
	// SRAM tier (hierarchical memory, the paper's §6 extension).
	// 0 disables the feature (every table pays full Lmat); a typical
	// enabled value is 0.4. SRAMBytes is the fast-memory capacity the
	// tier planner may spend.
	SRAMFactor float64
	SRAMBytes  int
}

// ByName returns the preset whose Name is name — "bluefield2", "agiliocx"
// or "emulated", the values of the commands' -target/-model flags — and
// false for any other name.
func ByName(name string) (Params, bool) {
	for _, preset := range []func() Params{BlueField2, AgilioCX, EmulatedNIC} {
		if pm := preset(); pm.Name == name {
			return pm, true
		}
	}
	return Params{}, false
}

// BlueField2 returns parameters approximating Nvidia BlueField2: dRMT ASIC
// cores fetching match-action entries over a memory bus, 2x100 Gb/s ports
// (one used in the paper's back-to-back setup). Counter updates on
// BlueField2 are cheap ("even without sampling, the maximum throughput
// degradation is only 2.0%", §5.4.1).
func BlueField2() Params {
	return Params{
		Name:          "bluefield2",
		Lmat:          25,
		Lact:          5,
		BranchFactor:  0.04,
		CounterUpdate: 0.5,
		Cores:         16,
		LineRateGbps:  100,
		CPUSlowdown:   4,
		// Migration between ASIC and ARM cores crosses the NIC fabric.
		MigrationLatency: 600,
		// Off-path tier: host cores across PCIe. x86 cores out-run the
		// ARM complex (1.5x ASIC vs 4x), but every crossing is a DMA:
		// ~4us doorbell/completion round trip amortized over the ring
		// batch plus an unamortizable per-packet copy.
		OffPathSlowdown: 1.5,
		DMABaseNs:       4000,
		DMAPerPacketNs:  80,
		DMABatch:        8,
		// Entry updates stall the ASIC table-update engine hardest, the
		// ARM tables less, host-memory tables barely (ns per update/s).
		UpdateStallASIC:    0.01,
		UpdateStallCPU:     0.002,
		UpdateStallOffPath: 0.0001,
	}
}

// AgilioCX returns parameters approximating Netronome Agilio CX: SoC
// micro-engine CPU cores with entries in external memory, 1x40 Gb/s.
// Counter updates are comparatively expensive (§5.4.1 reports up to ~35%
// latency overhead at 40 unsampled per-packet updates).
func AgilioCX() Params {
	return Params{
		Name:          "agiliocx",
		Lmat:          60,
		Lact:          12,
		BranchFactor:  0.08,
		CounterUpdate: 14,
		Cores:         20,
		LineRateGbps:  40,
		CPUSlowdown:   1,
		// Homogeneous CPU target: no ASIC/CPU migration.
		MigrationLatency: 0,
		// Off-path tier: the host across PCIe. The micro-engines are
		// slow enough that host cores beat them outright (0.7x), but
		// the 40G part's DMA engine is slower than BlueField's.
		OffPathSlowdown:    0.7,
		DMABaseNs:          5000,
		DMAPerPacketNs:     120,
		DMABatch:           8,
		UpdateStallASIC:    0.008,
		UpdateStallCPU:     0.008,
		UpdateStallOffPath: 0.0002,
	}
}

// EmulatedNIC returns the §5.3.3 BMv2-emulator NIC model: "LPM and ternary
// matches have the same cost, which is 3x slower than exact matches;
// conditional branches have 1/10 the cost of an exact table."
func EmulatedNIC() Params {
	return Params{
		Name:             "emulated",
		Lmat:             30,
		Lact:             6,
		BranchFactor:     0.1,
		LPMFixedM:        3,
		TernaryFixedM:    3,
		CounterUpdate:    1,
		Cores:            4,
		LineRateGbps:     100,
		CPUSlowdown:      5,
		MigrationLatency: 400,
	}
}

// ExpectedLatency computes L(G) (Equation 1) by propagating reach
// probabilities: E[L] = Σ_v P(reach v) · L(v), which equals the
// path-enumeration sum because path probabilities factor over edges.
func ExpectedLatency(prog *p4ir.Program, prof *profile.Profile, pm Params) float64 {
	ix := p4ir.NewIndex(prog)
	reach := make([]float64, ix.Len())
	prof.ReachProbsAlong(ix, reach)
	// Summed in name (ID) order: reproducible to the bit (warm/cold identity).
	k := pm.Kernel()
	var total float64
	for id, r := range reach {
		total += r * k.NodeLatency(prog, prof, ix.Name(int32(id)))
	}
	return total
}

// ThroughputGbps converts a per-packet latency into aggregate throughput:
// Cores packets in flight, one per run-to-completion core, capped at line
// rate. packetBytes is the wire size (the paper uses 512 B everywhere).
func (pm Params) ThroughputGbps(latencyNs float64, packetBytes int) float64 {
	if latencyNs <= 0 {
		return pm.LineRateGbps
	}
	pps := float64(pm.Cores) * 1e9 / latencyNs
	gbps := pps * float64(packetBytes) * 8 / 1e9
	return math.Min(gbps, pm.LineRateGbps)
}

// LatencyFloorNs returns the per-packet latency at which the target first
// saturates its line rate for the given packet size. Below this latency,
// throughput is constant at line rate — the "achieves the line rate"
// plateaus in Figures 9a-9c.
func (pm Params) LatencyFloorNs(packetBytes int) float64 {
	return float64(pm.Cores) * float64(packetBytes) * 8 / pm.LineRateGbps
}
