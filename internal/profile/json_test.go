package profile_test

import (
	"encoding/json"
	"testing"

	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

// Profiles travel as JSON through the control plane and the pipeleon CLI
// (-profile); the snapshot must round-trip losslessly.
func TestProfileJSONRoundTrip(t *testing.T) {
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	rec.Action("t1", "a")
	rec.Action("t1", "a")
	rec.Action("t1", "b")
	rec.Branch("c1", true)
	rec.Branch("c1", false)
	rec.Cache("cache1", true)
	rec.Cache("cache1", false)
	rec.Key("t1", 1)
	rec.Key("t1", 2)
	rec.Flow(99)
	p := col.Snapshot()
	p.UpdateRates["t1"] = 123.5

	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back := profile.New()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.TableTotal("t1") != 3 {
		t.Errorf("TableTotal = %d", back.TableTotal("t1"))
	}
	if back.BranchCounts["c1"] != [2]uint64{1, 1} {
		t.Errorf("BranchCounts = %v", back.BranchCounts["c1"])
	}
	if h, m := back.CacheHits["cache1"], back.CacheMisses["cache1"]; h != 1 || m != 1 {
		t.Errorf("cache hits, misses = %d, %d", h, m)
	}
	if back.UpdateRate("t1") != 123.5 {
		t.Errorf("update rate = %v", back.UpdateRate("t1"))
	}
	if back.Cardinality("t1", 0) != 2 {
		t.Errorf("cardinality = %d", back.Cardinality("t1", 0))
	}
	if back.FlowCardinality != 1 {
		t.Errorf("flow cardinality = %d", back.FlowCardinality)
	}
	if back.SampleRate != 1 {
		t.Errorf("sample rate = %v", back.SampleRate)
	}
}

func TestFlowCardinalityTracking(t *testing.T) {
	col := profile.NewCollector()
	rec := profiletest.NewRecorder(col)
	for i := 0; i < 100; i++ {
		rec.Flow(uint64(i % 25))
	}
	if got := col.Snapshot().FlowCardinality; got != 25 {
		t.Errorf("flow cardinality = %d, want 25", got)
	}
	col.Reset()
	if got := col.Snapshot().FlowCardinality; got != 0 {
		t.Errorf("flow cardinality after reset = %d", got)
	}
	// A flow of the closed window counts again in the new one.
	rec.Flow(3)
	if got := col.Snapshot().FlowCardinality; got != 1 {
		t.Errorf("flow cardinality in the new window = %d, want 1", got)
	}
}
