package costmodel

import (
	"math"
	"testing"
)

func TestNumTiersPerPreset(t *testing.T) {
	if got := BlueField2().NumTiers(); got != 3 {
		t.Fatalf("BlueField2 tiers = %d, want 3", got)
	}
	if got := AgilioCX().NumTiers(); got != 3 {
		t.Fatalf("AgilioCX tiers = %d, want 3", got)
	}
	// The §5.3.3 emulator model is the paper's two-tier target.
	if got := EmulatedNIC().NumTiers(); got != 2 {
		t.Fatalf("EmulatedNIC tiers = %d, want 2", got)
	}
}

func TestTierSpeed(t *testing.T) {
	pm := BlueField2()
	if got := pm.TierSpeed(TierASIC); got != 1 {
		t.Fatalf("ASIC speed = %v, want 1", got)
	}
	if got := pm.TierSpeed(TierNICCPU); got != pm.CPUSlowdown {
		t.Fatalf("NIC-CPU speed = %v, want %v", got, pm.CPUSlowdown)
	}
	if got := pm.TierSpeed(TierOffPath); got != pm.OffPathSlowdown {
		t.Fatalf("off-path speed = %v, want %v", got, pm.OffPathSlowdown)
	}
	// Unconfigured slowdowns fall back to 1 (legacy guard).
	var zero Params
	for tid := TierID(0); tid < 3; tid++ {
		if got := zero.TierSpeed(tid); got != 1 {
			t.Fatalf("zero-params speed(%d) = %v, want 1", tid, got)
		}
	}
}

func TestMigrationCostMatrix(t *testing.T) {
	pm := BlueField2()
	for from := TierID(0); int(from) < pm.NumTiers(); from++ {
		if got := pm.MigrationCost(from, from); got != 0 {
			t.Fatalf("self-migration %d cost = %v, want 0", from, got)
		}
	}
	if got := pm.MigrationCost(TierASIC, TierNICCPU); got != pm.MigrationLatency {
		t.Fatalf("asic->cpu = %v, want %v", got, pm.MigrationLatency)
	}
	if got := pm.MigrationCost(TierNICCPU, TierASIC); got != pm.MigrationLatency {
		t.Fatalf("cpu->asic = %v, want %v", got, pm.MigrationLatency)
	}
	wantDMA := pm.OffPathCrossNs(pm.DMABatch)
	for _, from := range []TierID{TierASIC, TierNICCPU} {
		if got := pm.MigrationCost(from, TierOffPath); got != wantDMA {
			t.Fatalf("%d->offpath = %v, want %v", from, got, wantDMA)
		}
		if got := pm.MigrationCost(TierOffPath, from); got != wantDMA {
			t.Fatalf("offpath->%d = %v, want %v", from, got, wantDMA)
		}
	}
}

func TestMigrationCostOffPathDisabledIsInfinite(t *testing.T) {
	pm := EmulatedNIC() // no off-path tier
	if got := pm.MigrationCost(TierASIC, TierOffPath); !math.IsInf(got, 1) {
		t.Fatalf("crossing into a missing tier = %v, want +Inf", got)
	}
	if got := pm.MigrationCost(TierOffPath, TierNICCPU); !math.IsInf(got, 1) {
		t.Fatalf("crossing out of a missing tier = %v, want +Inf", got)
	}
}

func TestOffPathCrossNsBatchAmortization(t *testing.T) {
	pm := Params{DMABaseNs: 4000, DMAPerPacketNs: 80}
	if got := pm.OffPathCrossNs(1); got != 4080 {
		t.Fatalf("batch=1 cross = %v, want 4080", got)
	}
	if got := pm.OffPathCrossNs(0); got != pm.OffPathCrossNs(1) {
		t.Fatalf("batch<=0 must behave like batch=1")
	}
	// Strictly monotone decreasing in batch depth, floored by the copy.
	prev := pm.OffPathCrossNs(1)
	for b := 2; b <= 64; b *= 2 {
		cur := pm.OffPathCrossNs(b)
		if cur >= prev {
			t.Fatalf("cross(%d)=%v not below cross(%d)=%v", b, cur, b/2, prev)
		}
		if cur < pm.DMAPerPacketNs {
			t.Fatalf("cross(%d)=%v below the per-packet copy floor", b, cur)
		}
		prev = cur
	}
}

func TestTierUpdateStallOrdering(t *testing.T) {
	for _, pm := range []Params{BlueField2(), AgilioCX()} {
		asic := pm.TierUpdateStall(TierASIC)
		cpu := pm.TierUpdateStall(TierNICCPU)
		off := pm.TierUpdateStall(TierOffPath)
		if asic < cpu || cpu < off {
			t.Fatalf("%s: update stalls not monotone toward the host: %v %v %v",
				pm.Name, asic, cpu, off)
		}
		if off <= 0 {
			t.Fatalf("%s: off-path stall must be positive", pm.Name)
		}
	}
}
