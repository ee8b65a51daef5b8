package nicsim

import (
	"fmt"
	"sync"
	"testing"

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
