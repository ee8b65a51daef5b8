package fleet_test

import (
	"testing"

	"pipeleon/internal/fleet"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// TestProfileSignatureQuantization pins the similarity relation behind
// plan sharing: profiles whose table shares differ by a few percent hash
// to the same signature (plan reuse), while a real traffic shift — the
// hot table going cold — changes it (fresh search).
func TestProfileSignatureQuantization(t *testing.T) {
	prog := aclProgram(t)
	mkProf := func(t1, t2, acl1, acl2 uint64) *profile.Profile {
		p := profile.New()
		p.ActionCounts["t1"] = map[string]uint64{"set": t1}
		p.ActionCounts["t2"] = map[string]uint64{"set": t2}
		p.ActionCounts["acl1"] = map[string]uint64{"allow": acl1}
		p.ActionCounts["acl2"] = map[string]uint64{"drop_packet": acl2}
		return p
	}

	base := profile.Signature(prog, mkProf(1000, 1000, 1000, 800))
	similar := profile.Signature(prog, mkProf(1020, 990, 1010, 812))
	if base != similar {
		t.Errorf("near-identical profiles got different signatures: %s vs %s", base, similar)
	}
	shifted := profile.Signature(prog, mkProf(1000, 1000, 1000, 10))
	if base == shifted {
		t.Error("hot table going cold did not change the signature")
	}

	// An entry-update storm on a table also forces a re-plan (caching a
	// hot-updated table is the §4 trap the update-rate term guards).
	storm := mkProf(1000, 1000, 1000, 800)
	storm.UpdateRates["acl2"] = 5000
	if got := profile.Signature(prog, storm); got == base {
		t.Error("update-rate storm did not change the signature")
	}
}

// TestPlanCacheGetPutEvict covers hit/miss accounting, FIFO eviction, and
// that cached programs never alias what callers deploy.
func TestPlanCacheGetPutEvict(t *testing.T) {
	pc := fleet.NewPlanCache(2)
	prog := aclProgram(t)
	a, b, c := p4ir.Digest{'a'}, p4ir.Digest{'b'}, p4ir.Digest{'c'}
	put := func(base p4ir.Digest) {
		pc.Put(&fleet.PlanEntry{
			Base: base, Model: "bf2", Signature: "s",
			Plan: []string{"reorder"}, Program: prog, Source: "search",
		})
	}
	if _, ok := pc.Get(a, "bf2", "s"); ok {
		t.Fatal("empty cache returned a hit")
	}
	put(a)
	e, ok := pc.Get(a, "bf2", "s")
	if !ok || e.Source != "cache" {
		t.Fatalf("entry = %+v ok=%v, want a cache hit", e, ok)
	}
	if e.Program == prog {
		t.Error("Get returned the stored program by reference")
	}
	// Mutating the returned clone must not poison later hits.
	e.Program.Name = "mutated"
	if e2, _ := pc.Get(a, "bf2", "s"); e2.Program.Name == "mutated" {
		t.Error("mutation of a returned program leaked into the cache")
	}

	put(b)
	put(c) // evicts "a" (FIFO)
	if _, ok := pc.Get(a, "bf2", "s"); ok {
		t.Error("oldest entry survived eviction")
	}
	if _, ok := pc.Get(c, "bf2", "s"); !ok {
		t.Error("newest entry missing")
	}
	st := pc.Stats()
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
	if st.Hits != 3 || st.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", st.Hits, st.Misses)
	}
}

// TestFingerprintStable pins that fingerprints are order-insensitive to
// clone round-trips but sensitive to program structure.
func TestFingerprintStable(t *testing.T) {
	a := aclProgram(t)
	if fleet.Fingerprint(a) != fleet.Fingerprint(a.Clone()) {
		t.Error("clone changed the fingerprint")
	}
	if fleet.Fingerprint(a) == fleet.Fingerprint(altProgram(t)) {
		t.Error("different programs share a fingerprint")
	}
	if fleet.Fingerprint(nil) != "" {
		t.Error("nil program should fingerprint to empty")
	}
}
