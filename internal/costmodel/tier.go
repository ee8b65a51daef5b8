package costmodel

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
// iterate 0..Kernel.Tiers-1 and read the kernel's per-tier speeds and
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

// offPathCrossNs is the one-way ASIC↔host crossing cost when DMA
// descriptors are batched b deep: the doorbell/completion round trip
// amortizes over the batch, the per-packet payload copy does not. This is
// the batch-size-sensitive transfer function of the off-path SmartNIC
// studies — bursty (high-locality) traffic fills deep rings and pays
// almost only the copy; sparse traffic pays the full round trip per
// packet.
func (pm Params) offPathCrossNs(batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	return pm.DMABaseNs/float64(batch) + pm.DMAPerPacketNs
}
