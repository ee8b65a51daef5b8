package costmodel

import (
	"math"
	"testing"
)

func TestNumTiersPerPreset(t *testing.T) {
	if got := BlueField2().Kernel().Tiers; got != 3 {
		t.Fatalf("BlueField2 tiers = %d, want 3", got)
	}
	if got := AgilioCX().Kernel().Tiers; got != 3 {
		t.Fatalf("AgilioCX tiers = %d, want 3", got)
	}
	// The §5.3.3 emulator model is the paper's two-tier target, and so is
	// any target with a zero OffPathSlowdown.
	if got := EmulatedNIC().Kernel().Tiers; got != 2 {
		t.Fatalf("EmulatedNIC tiers = %d, want 2", got)
	}
	two := BlueField2()
	two.OffPathSlowdown = 0
	if got := two.Kernel().Tiers; got != 2 {
		t.Fatalf("zero OffPathSlowdown: tiers = %d, want 2", got)
	}
}

func TestTierSpeed(t *testing.T) {
	pm := BlueField2()
	k := pm.Kernel()
	if got := k.Speed[TierASIC]; got != 1 {
		t.Fatalf("ASIC speed = %v, want 1", got)
	}
	if got := k.Speed[TierNICCPU]; got != pm.CPUSlowdown {
		t.Fatalf("NIC-CPU speed = %v, want %v", got, pm.CPUSlowdown)
	}
	if got := k.Speed[TierOffPath]; got != pm.OffPathSlowdown {
		t.Fatalf("off-path speed = %v, want %v", got, pm.OffPathSlowdown)
	}
	// Unconfigured slowdowns (CPUSlowdown = 0 included) fall back to 1.
	var zero Params
	for tid, got := range zero.Kernel().Speed {
		if got != 1 {
			t.Fatalf("zero-params speed(%d) = %v, want 1", tid, got)
		}
	}
}

func TestMigrationCostMatrix(t *testing.T) {
	pm := BlueField2()
	k := pm.Kernel()
	for from := 0; from < k.Tiers; from++ {
		if got := k.Migrate[from][from]; got != 0 {
			t.Fatalf("self-migration %d cost = %v, want 0", from, got)
		}
	}
	if got := k.Migrate[TierASIC][TierNICCPU]; got != pm.MigrationLatency {
		t.Fatalf("asic->cpu = %v, want %v", got, pm.MigrationLatency)
	}
	if got := k.Migrate[TierNICCPU][TierASIC]; got != pm.MigrationLatency {
		t.Fatalf("cpu->asic = %v, want %v", got, pm.MigrationLatency)
	}
	wantDMA := pm.offPathCrossNs(pm.DMABatch)
	for _, from := range []TierID{TierASIC, TierNICCPU} {
		if got := k.Migrate[from][TierOffPath]; got != wantDMA {
			t.Fatalf("%d->offpath = %v, want %v", from, got, wantDMA)
		}
		if got := k.Migrate[TierOffPath][from]; got != wantDMA {
			t.Fatalf("offpath->%d = %v, want %v", from, got, wantDMA)
		}
	}
}

func TestMigrationCostOffPathDisabledIsInfinite(t *testing.T) {
	k := EmulatedNIC().Kernel() // no off-path tier
	if got := k.Migrate[TierASIC][TierOffPath]; !math.IsInf(got, 1) {
		t.Fatalf("crossing into a missing tier = %v, want +Inf", got)
	}
	if got := k.Migrate[TierOffPath][TierNICCPU]; !math.IsInf(got, 1) {
		t.Fatalf("crossing out of a missing tier = %v, want +Inf", got)
	}
}

func TestOffPathCrossNsBatchAmortization(t *testing.T) {
	pm := Params{DMABaseNs: 4000, DMAPerPacketNs: 80}
	if got := pm.offPathCrossNs(1); got != 4080 {
		t.Fatalf("batch=1 cross = %v, want 4080", got)
	}
	if got := pm.offPathCrossNs(0); got != pm.offPathCrossNs(1) {
		t.Fatalf("batch<=0 must behave like batch=1")
	}
	// Strictly monotone decreasing in batch depth, floored by the copy.
	prev := pm.offPathCrossNs(1)
	for b := 2; b <= 64; b *= 2 {
		cur := pm.offPathCrossNs(b)
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
		k := pm.Kernel()
		asic, cpu, off := k.Stall[TierASIC], k.Stall[TierNICCPU], k.Stall[TierOffPath]
		if asic < cpu || cpu < off {
			t.Fatalf("%s: update stalls not monotone toward the host: %v %v %v",
				pm.Name, asic, cpu, off)
		}
		if off <= 0 {
			t.Fatalf("%s: off-path stall must be positive", pm.Name)
		}
	}
}

func TestKernelTierRaisesAndClamps(t *testing.T) {
	three, two := BlueField2().Kernel(), EmulatedNIC().Kernel()
	for _, c := range []struct {
		k               *Kernel
		assigned, floor int
		want            TierID
	}{
		{&three, 0, 0, 0},
		{&three, 0, 1, 1}, // raised to the floor
		{&three, 2, 1, 2}, // an assignment above the floor stands
		{&three, 5, 0, 2}, // clamped to the top tier
		{&two, 0, 2, 1},   // a floor the target lacks clamps too
		{&two, -1, -3, 0}, // never below the ASIC
	} {
		if got := c.k.Tier(c.assigned, c.floor); got != c.want {
			t.Errorf("%d tiers: Tier(%d, %d) = %d, want %d", c.k.Tiers, c.assigned, c.floor, got, c.want)
		}
	}
}
