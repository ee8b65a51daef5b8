package costmodel

import (
	"math"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// maxTiers is the length of the kernel's tier vectors: the model names
// three tiers, and a target has two or three of them.
const maxTiers = 3

// Kernel is the cost semantics of one target: the §3.1 per-node terms and
// their §3.2.4 tiered form, folded once from Params. The emulator charges
// these constants per executed event (nicsim's compiled plan embeds a
// Kernel) and the optimizer integrates them over a profile (opt.Evaluator
// holds one), so the two can differ in what they weigh the constants by —
// the events a packet caused against the profile's expectations — and never
// in the constants. A Kernel holds no references.
type Kernel struct {
	// Mat is one exact-match probe (Lmat), Act one action primitive
	// (Lact), Cond one conditional (BranchFactor·Lmat) and Counter one
	// profiling counter increment, each at ASIC speed.
	Mat, Act, Cond, Counter float64
	// Tiers is how many execution tiers the target has: 3 with an
	// off-path tier (OffPathSlowdown > 0), else 2. Speed[t] scales
	// whatever executes on tier t, tables and conditionals alike (1 = ASIC
	// speed, and an unconfigured slowdown). Migrate[from][to] is the one-way
	// crossing: free within a tier, MigrationLatency between the on-path
	// tiers, a DMA transfer at DMABatch depth to or from the off-path tier,
	// +Inf into or out of a tier the target lacks. Stall[t] is the
	// per-packet latency one entry update per second adds while the updated
	// table lives on tier t.
	Tiers   int
	Speed   [maxTiers]float64
	Migrate [maxTiers][maxTiers]float64
	Stall   [maxTiers]float64
	// SRAM scales a probe of a table pinned to the SRAM memory tier (0:
	// the target models no SRAM tier).
	SRAM float64

	lpmM, ternaryM int
}

// Kernel folds the target's parameters into its cost kernel.
func (pm Params) Kernel() Kernel {
	k := Kernel{
		Mat: pm.Lmat, Act: pm.Lact, Cond: pm.BranchFactor * pm.Lmat, Counter: pm.CounterUpdate,
		Tiers: 2, Speed: [maxTiers]float64{1, 1, 1},
		Stall: [maxTiers]float64{pm.UpdateStallASIC, pm.UpdateStallCPU, pm.UpdateStallOffPath},
		SRAM:  max(pm.SRAMFactor, 0), lpmM: max(pm.LPMFixedM, 0), ternaryM: max(pm.TernaryFixedM, 0),
	}
	if pm.CPUSlowdown > 0 {
		k.Speed[TierNICCPU] = pm.CPUSlowdown
	}
	if pm.OffPathSlowdown > 0 {
		k.Tiers, k.Speed[TierOffPath] = 3, pm.OffPathSlowdown
	}
	for from := range k.Migrate {
		for to := range k.Migrate[from] {
			switch {
			case from == to:
			case from >= k.Tiers || to >= k.Tiers:
				k.Migrate[from][to] = math.Inf(1)
			case from <= int(TierNICCPU) && to <= int(TierNICCPU):
				k.Migrate[from][to] = pm.MigrationLatency
			default:
				k.Migrate[from][to] = pm.offPathCrossNs(pm.DMABatch)
			}
		}
	}
	return k
}

// PinnedM is the probe count the target fixes for t's match kind (the
// §5.3.3 emulated NIC charges every LPM and ternary match 3), or 0 when
// the probes follow t's entries.
func (k *Kernel) PinnedM(t *p4ir.Table) int {
	switch t.WidestMatchKind() {
	case p4ir.MatchLPM:
		return k.lpmM
	case p4ir.MatchTernary, p4ir.MatchRange:
		return k.ternaryM
	}
	return 0
}

// Probe is one probe of t: Mat, scaled by SRAM when t is pinned to SRAM.
func (k *Kernel) Probe(t *p4ir.Table) float64 { return k.Mat * k.tierFactor(t) }

func (k *Kernel) tierFactor(t *p4ir.Table) float64 {
	if k.SRAM > 0 && t.MemTier() == p4ir.TierSRAM {
		return k.SRAM
	}
	return 1
}

// Match evaluates Equation 4a for t: m, the probes one key match costs
// (PinnedM, else t's entry-derived complexity), and the latency m·Lmat
// scaled by t's memory tier.
func (k *Kernel) Match(t *p4ir.Table) (m int, lat float64) {
	if m = k.PinnedM(t); m == 0 {
		m = t.MatchComplexity()
	}
	return m, float64(m) * k.Mat * k.tierFactor(t)
}

// Tier resolves where a table executes: its assigned tier raised to its
// floor, clamped to the tiers the target has.
func (k *Kernel) Tier(assigned, floor int) TierID {
	return TierID(min(max(assigned, floor, 0), k.Tiers-1))
}

// CachedSpan is the expected cost of a span behind a cache that hits with
// probability h (§3.2.2): one exact probe always, the combined action act
// on a hit, the original span orig on a miss.
func (k *Kernel) CachedSpan(h, act, orig float64) float64 {
	return k.Mat + h*act + (1-h)*orig
}

// tableLatency evaluates Equation 3 for one table given its action
// probabilities.
func (k *Kernel) tableLatency(t *p4ir.Table, actionProb map[string]float64) float64 {
	_, match := k.Match(t)
	var action float64
	for _, a := range t.Actions {
		action += actionProb[a.Name] * float64(a.NumPrimitives()) * k.Act
	}
	return match + action
}

// NodeLatency returns the latency of any named node under the profile, at
// ASIC speed.
func (k *Kernel) NodeLatency(prog *p4ir.Program, prof *profile.Profile, name string) float64 {
	if t, c := prog.Node(name); t != nil {
		return k.tableLatency(t, prof.ActionProb(t))
	} else if c != nil {
		return k.Cond
	}
	return 0
}
