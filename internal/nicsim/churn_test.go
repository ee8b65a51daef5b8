package nicsim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// TestEntryChurnUnderTraffic runs ProcessBurst workers and a Measure caller
// against a two-word conntrack table while another goroutine inserts,
// deletes and modifies its entries. Every operation touches one key, so
// "the result under the entry set before or after the operation" comes to
// a set of allowed outcomes per packet class: an entry that is never
// touched must always hit with its own action data, however often its
// probe run is copied, grown or shifted around it; a churned key may miss
// or hit with its own data; a modified entry carries one of its two
// argument values; a key never installed always misses. Run under -race
// this is also the proof that a published table is never written.
func TestEntryChurnUnderTraffic(t *testing.T) {
	const stable, churned, absent = 700, 300, 100
	src := func(class, i int) uint32 { return uint32(0x0a000000 + class<<20 + i*7) }
	sport := func(i int) uint16 { return uint16(i * 13) }
	entry := func(class, i int, arg uint64) p4ir.Entry {
		e := p4ir.Entry{
			Match:  []p4ir.MatchValue{{Value: uint64(src(class, i))}, {Value: uint64(sport(i))}},
			Action: "mark", Args: []string{fmt.Sprint(arg)},
		}
		if class == 0 && i%10 == 0 {
			e.Action, e.Args = "deny", nil
		}
		return e
	}
	spec := p4ir.TableSpec{
		Name: "conntrack",
		Keys: []p4ir.Key{{Field: "ipv4.srcAddr", Kind: p4ir.MatchExact, Width: 32}, {Field: "tcp.sport", Kind: p4ir.MatchExact, Width: 16}},
		Actions: []*p4ir.Action{
			p4ir.NewAction("mark", p4ir.Prim("modify_field", "meta.ct", "$0")),
			p4ir.NewAction("deny", p4ir.Prim("drop")),
			p4ir.NoopAction("miss"),
		},
		DefaultAction: "miss",
	}
	for i := 0; i < stable; i++ {
		spec.Entries = append(spec.Entries, entry(0, i, uint64(i+1)))
	}
	prog, err := p4ir.ChainTables("ct", []p4ir.TableSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// Instrumented, so a Measure of the stable packets (more than
	// finishMinPkts) runs its finish helper beside the churn too.
	defer twoProcs()()
	nic, err := New(prog, Config{Params: testParams(), Collector: profile.NewCollector(), Instrument: true})
	if err != nil {
		t.Fatal(err)
	}

	// allowed[i] lists the meta.ct values packet i may leave with (0 = miss);
	// deny[i] says it must drop instead.
	var pkts []*packet.Packet
	var allowed [][2]uint64
	var deny []bool
	add := func(class, i int, a, b uint64) {
		pkts = append(pkts, pkt(src(class, i), 9, sport(i), 80))
		allowed = append(allowed, [2]uint64{a, b})
		deny = append(deny, class == 0 && i%10 == 0)
	}
	const modified = 5 // stable entry whose action data the churner rewrites
	for i := 0; i < stable; i++ {
		switch {
		case i == modified:
			add(0, i, uint64(i+1), 777777)
		default:
			add(0, i, uint64(i+1), uint64(i+1))
		}
	}
	for j := 0; j < churned; j++ {
		add(1, j, 0, uint64(100000+j))
	}
	for k := 0; k < absent; k++ {
		add(2, k, 0, 0)
	}
	denied := 0
	for _, d := range deny[:stable] {
		if d {
			denied++
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			var scratch [BurstSize]packet.Packet
			var burst [BurstSize]*packet.Packet
			var results [BurstSize]Result
			for i := range burst {
				burst[i] = &scratch[i]
			}
			for ; ; lo = (lo + BurstSize) % len(pkts) {
				select {
				case <-stop:
					return
				default:
				}
				for j := range burst {
					pkts[(lo+j)%len(pkts)].CloneInto(burst[j])
				}
				nic.ProcessBurst(burst[:], results[:])
				for j := range burst {
					i := (lo + j) % len(pkts)
					ct, _ := burst[j].Get("meta.ct")
					if results[j].Dropped != deny[i] || !deny[i] && ct != allowed[i][0] && ct != allowed[i][1] {
						t.Errorf("packet %d: dropped=%v meta.ct=%d, want dropped=%v meta.ct in %v", i, results[j].Dropped, ct, deny[i], allowed[i])
						return
					}
				}
			}
		}(w * 17 * BurstSize)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Only never-touched entries drop, so the rate is exact.
			if m := nic.Measure(pkts[:stable]); m.DropRate != float64(denied)/stable {
				t.Errorf("Measure under churn: drop rate %v, want %v", m.DropRate, float64(denied)/stable)
				return
			}
		}
	}()

	ops := 4000
	if testing.Short() {
		ops = 800
	}
	step := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	for n := 0; n < ops && !t.Failed(); n++ {
		j := n % churned
		step(nic.InsertEntry("conntrack", entry(1, j, uint64(100000+j))))
		if n >= churned/2 { // keep about half the churned keys installed
			old := entry(1, (n-churned/2)%churned, 0)
			step(nic.DeleteEntry("conntrack", old.Match))
		}
		if n%3 == 0 {
			arg := []string{"777777", fmt.Sprint(modified + 1)}[n/3%2]
			step(nic.ModifyEntry("conntrack", entry(0, modified, 0).Match, "mark", []string{arg}))
		}
	}
	close(stop)
	wg.Wait()
}

// cachedT1 is a flow cache in front of t1, an exact table on the
// destination address whose hit action writes meta.t1; both the cache's hit
// and t1 continue to next.
func cachedT1(t *testing.T, b *p4ir.Builder, next string, entries ...p4ir.Entry) *p4ir.Program {
	t.Helper()
	prog, err := b.Table(p4ir.TableSpec{
		Name:          "cachetab",
		Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: 32}},
		Actions:       []*p4ir.Action{{Name: "cache_hit"}, {Name: "cache_miss"}},
		DefaultAction: "cache_miss",
		ActionNext:    map[string]string{"cache_hit": next, "cache_miss": "t1"},
	}).Table(exactTable("t1", "ipv4.dstAddr", next, entries...)).Root("cachetab").Build()
	if err != nil {
		t.Fatal(err)
	}
	prog.Tables["cachetab"].SetCacheMeta(p4ir.CacheSpec{
		Table: "cachetab", Kind: p4ir.KindCache,
		Covers: []string{"t1"}, HitNext: next, MissNext: "t1", Budget: 1024,
	})
	return prog
}

// TestNoStaleFillOutlivesInvalidation runs ProcessBurst workers through a
// cache over t1 while inserts and deletes toggle t1's entries. Every
// operation invalidates the whole cache (§3.2.2), so once the workers have
// drained, every live cache entry must be what a fresh walk of t1 gives its
// key: a fill computed on the plan from before an operation and installed
// after its invalidation fails the check. Rounds of a few operations each
// give the race many last operations to land on.
func TestNoStaleFillOutlivesInvalidation(t *testing.T) {
	const keys = 4
	dst := func(k int) uint32 { return uint32(0x0a000001 + k) }
	defer twoProcs()()
	nic, err := New(cachedT1(t, p4ir.NewBuilder("p"), ""), Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	var pkts [BurstSize]*packet.Packet
	for i := range pkts {
		pkts[i] = pkt(1, dst(i%keys), 1, 80)
	}
	installed := make([]bool, keys)
	rounds := 300
	if testing.Short() || raceEnabled {
		rounds = 60
	}
	for r := 0; r < rounds && !t.Failed(); r++ {
		stop := make(chan struct{})
		var ready, done sync.WaitGroup
		for w := 0; w < 2; w++ {
			ready.Add(1)
			done.Add(1)
			go func() {
				defer done.Done()
				var scratch [BurstSize]packet.Packet
				var burst [BurstSize]*packet.Packet
				var results [BurstSize]Result
				for i := range burst {
					burst[i] = &scratch[i]
				}
				for n := 0; ; n++ {
					for j := range burst {
						pkts[j].CloneInto(burst[j])
					}
					nic.ProcessBurst(burst[:], results[:])
					if n == 0 {
						ready.Done()
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
		}
		ready.Wait()
		for n := 0; n < 8; n++ {
			k := (r + n) % keys
			if installed[k] {
				err = nic.DeleteEntry("t1", e("hit_act", uint64(dst(k))).Match)
			} else {
				err = nic.InsertEntry("t1", e("hit_act", uint64(dst(k))))
			}
			if err != nil {
				t.Fatal(err)
			}
			installed[k] = !installed[k]
		}
		close(stop)
		done.Wait()

		fresh, err := p4ir.ChainTables("fresh", []p4ir.TableSpec{exactTable("t1", "ipv4.dstAddr", "", nic.Program().Tables["t1"].Entries...)})
		if err != nil {
			t.Fatal(err)
		}
		walker, err := New(fresh, Config{Params: testParams()})
		if err != nil {
			t.Fatal(err)
		}
		fc := nic.caches["cachetab"]
		for id := range fc.nodes {
			key := fc.keys[id*fc.kw:][:fc.nodes[id].keyLen]
			ids, vals, dropped := fc.result(int32(id))
			cached := pkt(1, uint32(key[0]), 1, 80)
			for i, fid := range ids {
				cached.SetID(fid, vals[i])
			}
			walked := pkt(1, uint32(key[0]), 1, 80)
			res := walker.Process(walked)
			got, _ := cached.Get("meta.t1")
			want, _ := walked.Get("meta.t1")
			if got != want || dropped != res.Dropped {
				t.Errorf("round %d: the cache holds meta.t1=%d dropped=%v for %#x, a fresh walk of t1 gives %d %v",
					r, got, dropped, key[0], want, res.Dropped)
			}
		}
	}
}

// TestPanickingWalkReleasesCacheLock panics the walk of a cached program
// in a conditional's evaluator, once through Measure and once through
// Process: the cache lock unwinds with it, so the next Measure completes.
func TestPanickingWalkReleasesCacheLock(t *testing.T) {
	var boom atomic.Bool
	prog := cachedT1(t, p4ir.NewBuilder("p").Cond("boom", "true", "", ""), "boom", e("hit_act", 5))
	nic, err := New(prog, Config{Params: testParams()})
	if err != nil {
		t.Fatal(err)
	}
	pl := nic.plan.Load()
	pl.nodes[pl.ix.ID("boom")].cond = func(*packet.Packet) bool {
		if boom.Load() {
			panic("boom")
		}
		return true
	}
	pkts := make([]*packet.Packet, 64)
	for i := range pkts {
		pkts[i] = pkt(1, uint32(i%8), 1, 80)
	}
	for _, walk := range []func(){
		func() { nic.Measure(pkts) },
		func() { nic.Process(pkts[0].Clone()) },
	} {
		boom.Store(true)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("the walk did not panic")
				}
			}()
			walk()
		}()
		boom.Store(false)
		done := make(chan Measurement, 1)
		go func() { done <- nic.Measure(pkts) }()
		select {
		case m := <-done:
			if m.Packets != len(pkts) {
				t.Fatalf("Measure after the panic: %+v", m)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Measure after a panicking walk did not complete: the cache lock is still held")
		}
	}
	if st := nic.CacheStatsAll(); len(st) != 1 || st[0].Hits == 0 {
		t.Errorf("cache stats after the panics: %+v", st)
	}
}
