package costmodel

import "math"

// N-tier execution model. The paper's §3.2.4 heterogeneous support is a
// binary ASIC/NIC-CPU split; the off-path SmartNIC literature
// ("Demystifying DPA-enhanced off-path SmartNIC", PnO-TCP) adds a third
// tier — host cores behind a PCIe/DMA latency wall — whose transfer cost
// amortizes with DMA descriptor batching and whose execution speed can
// beat the NIC's wimpy cores. The tier abstraction below generalizes the
// placement cost model to any number of ordered tiers:
//
//   - tier 0 is the ASIC (line-rate match-action hardware),
//   - tier 1 is the on-path NIC CPU complex (node latencies scaled by
//     CPUSlowdown, reached over the NIC fabric at MigrationLatency),
//   - tier 2, when the target has one, is the off-path host/DPU complex
//     (node latencies scaled by OffPathSlowdown, reached over PCIe at a
//     DMA-batch-sensitive crossing cost).
//
// Only this package names concrete tiers; the optimizer and runtime
// iterate 0..NumTiers()-1 and ask the Params methods for speeds and
// per-pair crossing costs, which is what keeps them N-tier generic (an
// archlint rule enforces that TierASIC/TierNICCPU/TierOffPath never leak
// into internal/opt or internal/core).

// TierID identifies one execution tier, ordered fastest-first: 0 is the
// ASIC, higher IDs are progressively farther from the wire.
type TierID int

// Concrete tiers of the targets this package models.
const (
	// TierASIC is the hardware match-action pipeline.
	TierASIC TierID = 0
	// TierNICCPU is the on-path NIC CPU complex (§3.2.4's "CPU cores").
	TierNICCPU TierID = 1
	// TierOffPath is the host/DPU complex behind the PCIe/DMA wall.
	TierOffPath TierID = 2
)

// NumTiers returns how many execution tiers the target has: two (ASIC +
// NIC CPU) for on-path SmartNICs, three when an off-path host tier is
// configured (OffPathSlowdown > 0).
func (pm Params) NumTiers() int {
	if pm.OffPathSlowdown > 0 {
		return 3
	}
	return 2
}

// TierSpeed returns the node-latency multiplier of a tier (1 = ASIC
// speed). Out-of-range or unconfigured tiers fall back to 1, mirroring
// the legacy CPUSlowdown<=0 guard.
func (pm Params) TierSpeed(t TierID) float64 {
	switch {
	case t <= 0:
		return 1
	case t == 1:
		if pm.CPUSlowdown > 0 {
			return pm.CPUSlowdown
		}
		return 1
	case t == 2:
		if pm.OffPathSlowdown > 0 {
			return pm.OffPathSlowdown
		}
		return 1
	}
	return 1
}

// OffPathCrossNs is the one-way ASIC↔host crossing cost when DMA
// descriptors are batched b deep: the doorbell/completion round trip
// amortizes over the batch, the per-packet payload copy does not. This is
// the batch-size-sensitive transfer function of the off-path SmartNIC
// studies — bursty (high-locality) traffic fills deep rings and pays
// almost only the copy; sparse traffic pays the full round trip per
// packet.
func (pm Params) OffPathCrossNs(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	return pm.DMABaseNs/float64(batch) + pm.DMAPerPacketNs
}

// MigrationCost returns the one-way cost of moving a packet from tier
// `from` to tier `to`. Same-tier moves are free; crossings between the
// on-path tiers (ASIC ↔ NIC CPU) cost MigrationLatency; any crossing
// that involves an off-path tier is a DMA transfer at the configured
// batch depth. Crossing into a tier the target does not have costs +Inf,
// which is how "off-path disabled" placements price themselves out of
// the greedy search without a special case.
func (pm Params) MigrationCost(from, to TierID) float64 {
	if from == to {
		return 0
	}
	if int(from) >= pm.NumTiers() || int(to) >= pm.NumTiers() || from < 0 || to < 0 {
		return math.Inf(1)
	}
	if from <= TierNICCPU && to <= TierNICCPU {
		return pm.MigrationLatency
	}
	return pm.OffPathCrossNs(pm.DMABatch)
}

// TierUpdateStall returns the expected per-packet latency (ns) that one
// entry update per second adds to packets while the updated table lives
// on tier t. On the ASIC, entry installs go through the table-update
// engine and stall the pipeline (the same contention CacheFillCostNs
// models for caches); on the NIC CPU they are cheaper software writes;
// off-path they land in host memory and barely perturb the datapath.
// This is what makes churn-heavy stateful stages gravitate off-path.
func (pm Params) TierUpdateStall(t TierID) float64 {
	switch {
	case t <= 0:
		return pm.UpdateStallASIC
	case t == 1:
		return pm.UpdateStallCPU
	}
	return pm.UpdateStallOffPath
}
