package profile_test

import (
	"reflect"
	"sync"
	"testing"

	"pipeleon/internal/profile"
)

func testLayout() *profile.Layout {
	return &profile.Layout{
		Actions: []profile.ActionSite{
			{Table: "acl", Action: "allow"},
			{Table: "acl", Action: "drop_packet"},
			{Table: "fwd", Action: "set_port"},
		},
		Branches: []string{"is_tcp"},
		Caches:   []string{"fwd_cache"},
		Tables:   []string{"acl", "fwd"},
	}
}

// bursts binds the layout on n shards and returns one burst per shard.
func bursts(c *profile.Collector, n int) []*profile.Burst {
	out := make([]*profile.Burst, n)
	for i, s := range c.Bind(testLayout(), n) {
		out[i] = s.NewBurst()
	}
	return out
}

// Snapshot must not consume shard state: two consecutive snapshots with no
// traffic in between are identical, and counts keep accumulating after.
func TestShardSnapshotNonDestructive(t *testing.T) {
	c := profile.NewCollector()
	bs := bursts(c, 2)
	for i := 0; i < 100; i++ {
		bs[i%2].IncAction(0)
		bs[i%2].AddKey(0, uint64(i%7))
		bs[i%2].Flush()
	}
	a := c.Snapshot()
	b := c.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Error("back-to-back snapshots differ")
	}
	bs[0].IncAction(0)
	bs[0].Flush()
	p := c.Snapshot()
	if got := p.ActionCounts["acl"]["allow"]; got != 101 {
		t.Errorf("post-snapshot increment lost: %d != 101", got)
	}
	if got := p.KeyCardinality["acl"]; got != 7 {
		t.Errorf("key cardinality %d != 7", got)
	}
	if _, ok := p.KeyCardinality["fwd"]; ok {
		t.Error("a table that saw no key has a cardinality entry")
	}
}

// Rebinding (program hot-swap) must fold outstanding shard counts into
// the carry profile rather than dropping them, keep the window's keys of
// the tables the new layout still has, and drop what a burst still bound
// to the old layout flushes afterwards.
func TestBindFoldsOldShards(t *testing.T) {
	c := profile.NewCollector()
	old := bursts(c, 2)
	for i := 0; i < 40; i++ {
		old[i%2].IncAction(1)
		old[i%2].AddKey(1, uint64(i))
		old[i%2].Flush()
	}
	old[0].AddKey(0, 1000) // logged before the swap, flushed after it
	bs := bursts(c, 8)
	old[0].Flush()
	for i := 0; i < 10; i++ {
		bs[i%8].IncAction(1)
		bs[i%8].AddKey(1, uint64(35+i))
		bs[i%8].Flush()
	}
	p := c.Snapshot()
	if got := p.ActionCounts["acl"]["drop_packet"]; got != 50 {
		t.Errorf("rebind lost counts: %d != 50", got)
	}
	if got := p.KeyCardinality["fwd"]; got != 45 {
		t.Errorf("keys across rebind: %d != 45", got)
	}
	if _, ok := p.KeyCardinality["acl"]; ok {
		t.Error("a stale burst's keys reached the new layout's slots")
	}
}

// Reset opens a new window: the keys of the closed one are gone and count
// again when they recur.
func TestResetReopensKeySets(t *testing.T) {
	c := profile.NewCollector()
	b := bursts(c, 1)[0]
	for round := 0; round < 3; round++ {
		for i := 0; i < 500; i++ {
			b.AddKey(0, uint64(i%50))
			b.AddFlow(uint64(i % 20))
			if i%32 == 31 {
				b.Flush()
			}
		}
		b.Flush()
		p := c.Snapshot()
		if p.KeyCardinality["acl"] != 50 || p.FlowCardinality != 20 {
			t.Fatalf("round %d: keys=%d flows=%d, want 50/20", round, p.KeyCardinality["acl"], p.FlowCardinality)
		}
		c.Reset()
		if p := c.Snapshot(); len(p.KeyCardinality) != 0 || p.FlowCardinality != 0 {
			t.Fatalf("round %d: Reset left keys behind: %v", round, p.KeyCardinality)
		}
	}
}

// Concurrent bursts on goroutines sharing shards must be exact — this is
// the lock-free claim, run under -race by make verify.
func TestShardConcurrentIncrementsExact(t *testing.T) {
	c := profile.NewCollector()
	shards := c.Bind(testLayout(), 4)
	const goroutines, per = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b := shards[g%len(shards)].NewBurst()
			for i := 0; i < per; i++ {
				b.IncAction(2)
				b.IncBranch(0, i%2 == 0)
				b.IncCache(0, i%3 == 0)
				b.AddKey(g%2, uint64(i%(41+g)))
				b.AddFlow(uint64(i % 97))
				if i%32 == 31 {
					b.Flush()
				}
			}
			b.Flush()
		}(g)
	}
	wg.Wait()
	p := c.Snapshot()
	if got := p.ActionCounts["fwd"]["set_port"]; got != goroutines*per {
		t.Errorf("action count %d != %d", got, goroutines*per)
	}
	br := p.BranchCounts["is_tcp"]
	if br[0]+br[1] != goroutines*per {
		t.Errorf("branch counts %v sum != %d", br, goroutines*per)
	}
	if p.CacheHits["fwd_cache"]+p.CacheMisses["fwd_cache"] != goroutines*per {
		t.Error("cache counts lost increments")
	}
	if p.FlowCardinality != 97 {
		t.Errorf("flow cardinality %d != 97", p.FlowCardinality)
	}
	// Goroutines g = 0, 2, 4, 6 share slot 0 with key ranges 41, 43, 45, 47.
	if p.KeyCardinality["acl"] != 47 || p.KeyCardinality["fwd"] != 48 {
		t.Errorf("key cardinality acl=%d fwd=%d, want 47/48", p.KeyCardinality["acl"], p.KeyCardinality["fwd"])
	}
}

// A burst flushed with FlushCounters hands its keys to a KeyLog: counters
// count at once, keys at Insert. Keys still in a log when a Bind supersedes
// their shard are dropped at Insert, as a Flush after the Bind drops them;
// a log that takes keys of a new shard first inserts those of the old one.
func TestKeyLogInsertsLater(t *testing.T) {
	c := profile.NewCollector()
	b := bursts(c, 1)[0]
	var log profile.KeyLog
	b.IncAction(0)
	b.AddKey(0, 1)
	b.AddFlow(9)
	b.FlushCounters(&log)
	p := c.Snapshot()
	if p.ActionCounts["acl"]["allow"] != 1 || p.KeyCardinality["acl"] != 0 || p.FlowCardinality != 0 {
		t.Fatalf("before Insert: counts %v, keys %v, flows %d", p.ActionCounts, p.KeyCardinality, p.FlowCardinality)
	}
	log.Insert()
	if p = c.Snapshot(); p.KeyCardinality["acl"] != 1 || p.FlowCardinality != 1 {
		t.Fatalf("after Insert: keys %v, flows %d", p.KeyCardinality, p.FlowCardinality)
	}

	b.AddKey(0, 2)
	b.FlushCounters(&log)
	nb := c.Bind(testLayout(), 1)[0].NewBurst()
	nb.AddKey(0, 3)
	nb.FlushCounters(&log) // inserts key 2 under the superseded shard: dropped
	log.Insert()
	if got := c.Snapshot().KeyCardinality["acl"]; got != 2 {
		t.Errorf("after a Bind: %d keys at acl, want 2 (1 and 3)", got)
	}
}
