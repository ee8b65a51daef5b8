package nicsim

import (
	"runtime"
	"sync"

	"pipeleon/internal/packet"
)

// Measurement aggregates a batch of processed packets into the quantities
// the evaluation plots: mean per-packet latency, achieved throughput under
// the target's core count and line rate, and drop/migration statistics.
type Measurement struct {
	Packets        int
	MeanLatencyNs  float64
	P99LatencyNs   float64
	ThroughputGbps float64
	DropRate       float64
	MeanMigrations float64
	VendorHitRate  float64
	// MeanCounterUpdates is the average profiling counter increments per
	// packet (Figure 12's x-axis).
	MeanCounterUpdates float64
}

// Measure clones and processes each packet, returning aggregates. Input
// packets are not mutated. Packets run through the burst datapath in
// submission order, so serial measurement remains bit-identical to
// per-packet Process calls (same virtual-clock order, same latency
// arithmetic).
func (n *NIC) Measure(pkts []*packet.Packet) Measurement {
	return n.measure(pkts, 1)
}

// MeasureParallel processes the batch on `workers` goroutines, steering
// packets to workers through an RSS-style indirection table rebalanced
// for the batch's per-bucket load — flows stay on one core, so per-flow
// state never migrates mid-batch. Per-packet latencies land in per-index
// slots and profiling updates are commutative, so for cache-free programs
// at sampling=1 the result is bit-identical to Measure. workers <= 0 uses
// GOMAXPROCS.
func (n *NIC) MeasureParallel(pkts []*packet.Packet, workers int) Measurement {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return n.measure(pkts, workers)
}

// burstTally accumulates per-worker aggregate counts; merged once per
// worker, not per packet.
type burstTally struct {
	drops, migrations, vhits, counters, wireBytes int64
}

func (t *burstTally) add(o *burstTally) {
	t.drops += o.drops
	t.migrations += o.migrations
	t.vhits += o.vhits
	t.counters += o.counters
	t.wireBytes += o.wireBytes
}

// burstRunner is one goroutine's scratch for the burst datapath: a fixed
// arena of packets cloned into by index, so measurement performs no
// per-packet heap allocation.
type burstRunner struct {
	scratch [BurstSize]packet.Packet
	ptrs    [BurstSize]*packet.Packet
	results [BurstSize]Result
}

func newBurstRunner() *burstRunner {
	br := &burstRunner{}
	for i := range br.ptrs {
		br.ptrs[i] = &br.scratch[i]
	}
	return br
}

// runIdx clones pkts[idx[i]] into the scratch arena, processes the burst,
// and scatters latencies back to their per-index slots.
func (br *burstRunner) runIdx(n *NIC, pkts []*packet.Packet, idx []int32, lat []float64, t *burstTally) {
	k := len(idx)
	for i := 0; i < k; i++ {
		pkts[idx[i]].CloneInto(br.ptrs[i])
	}
	n.ProcessBurst(br.ptrs[:k], br.results[:k])
	for i := 0; i < k; i++ {
		r := &br.results[i]
		j := idx[i]
		lat[j] = r.LatencyNs
		if r.Dropped {
			t.drops++
		}
		t.migrations += int64(r.Migrations)
		if r.VendorCacheHit {
			t.vhits++
		}
		t.counters += int64(r.CounterUpdates)
		wl := pkts[j].WireLen
		if wl == 0 {
			wl = 512
		}
		t.wireBytes += int64(wl)
	}
}

func (n *NIC) measure(pkts []*packet.Packet, workers int) Measurement {
	var m Measurement
	if len(pkts) == 0 {
		return m
	}
	lat := make([]float64, len(pkts))
	var tally burstTally

	if workers <= 1 {
		n.measureSerial(pkts, lat, &tally)
	} else {
		n.measureSteered(pkts, lat, &tally, workers)
	}

	var sum float64
	for _, l := range lat {
		sum += l
	}
	m.Packets = len(pkts)
	m.MeanLatencyNs = sum / float64(len(pkts))
	m.P99LatencyNs = percentile(lat, 0.99)
	m.DropRate = float64(tally.drops) / float64(len(pkts))
	m.MeanMigrations = float64(tally.migrations) / float64(len(pkts))
	m.VendorHitRate = float64(tally.vhits) / float64(len(pkts))
	m.MeanCounterUpdates = float64(tally.counters) / float64(len(pkts))
	meanBytes := int(tally.wireBytes / int64(len(pkts)))
	m.ThroughputGbps = n.cfg.Params.ThroughputGbps(m.MeanLatencyNs, meanBytes)
	return m
}

// measureSerial runs the batch through the burst datapath in order on the
// calling goroutine.
func (n *NIC) measureSerial(pkts []*packet.Packet, lat []float64, tally *burstTally) {
	br := newBurstRunner()
	for lo := 0; lo < len(pkts); lo += BurstSize {
		hi := lo + BurstSize
		if hi > len(pkts) {
			hi = len(pkts)
		}
		br.runRange(n, pkts, lo, hi, lat, tally)
	}
}

// runRange is runIdx for a contiguous index range — the serial path's
// form, with no index array to fill or chase.
func (br *burstRunner) runRange(n *NIC, pkts []*packet.Packet, lo, hi int, lat []float64, t *burstTally) {
	k := hi - lo
	for i := 0; i < k; i++ {
		pkts[lo+i].CloneInto(br.ptrs[i])
	}
	n.ProcessBurst(br.ptrs[:k], br.results[:k])
	for i := 0; i < k; i++ {
		r := &br.results[i]
		lat[lo+i] = r.LatencyNs
		if r.Dropped {
			t.drops++
		}
		t.migrations += int64(r.Migrations)
		if r.VendorCacheHit {
			t.vhits++
		}
		t.counters += int64(r.CounterUpdates)
		wl := pkts[lo+i].WireLen
		if wl == 0 {
			wl = 512
		}
		t.wireBytes += int64(wl)
	}
}

// measureSteered is the multicore path: one pass steers every packet index
// through the RSS table into its worker's list, then each worker walks
// its list in bursts, clone-and-processes and scatters results by index.
func (n *NIC) measureSteered(pkts []*packet.Packet, lat []float64, tally *burstTally, workers int) {
	// Steering: hash every flow, count per-bucket load, then migrate
	// buckets so the batch spreads evenly — deterministic for a given
	// batch, so repeated runs steer identically.
	rss := newRSSTable(workers)
	hashes := make([]uint64, len(pkts))
	var load [rssBuckets]int64
	for i, p := range pkts {
		hashes[i] = p.Flow().FastHash()
		load[bucketOf(hashes[i])]++
	}
	rss.rebalance(&load)

	// The bucket loads say how long each worker's list gets, so the lists
	// are cut from one array and filled in batch order.
	starts := make([]int, workers+1)
	for b, l := range load {
		starts[rss.bucket[b]+1] += int(l)
	}
	for w := 0; w < workers; w++ {
		starts[w+1] += starts[w]
	}
	idx := make([]int32, len(pkts))
	fill := append([]int(nil), starts[:workers]...)
	for i := range pkts {
		w := rss.workerOf(hashes[i])
		idx[fill[w]] = int32(i)
		fill[w]++
	}

	tallies := make([]burstTally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			br := newBurstRunner()
			for list := idx[starts[w]:starts[w+1]]; len(list) > 0; {
				k := min(len(list), BurstSize)
				br.runIdx(n, pkts, list[:k], lat, &tallies[w])
				list = list[k:]
			}
		}(w)
	}
	wg.Wait()
	for w := range tallies {
		tally.add(&tallies[w])
	}
}

// percentile returns the value at rank int(q*(len-1)) of the sorted order
// — the same element the former sort-then-index implementation produced —
// via in-place quickselect, which drops the O(n log n) sort from every
// measurement. The input slice is reordered.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	k := int(q * float64(len(values)-1))
	lo, hi := 0, len(values)-1
	for lo < hi {
		pivot := values[(lo+hi)>>1]
		i, j := lo, hi
		for i <= j {
			for values[i] < pivot {
				i++
			}
			for values[j] > pivot {
				j--
			}
			if i <= j {
				values[i], values[j] = values[j], values[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return values[k]
		}
	}
	return values[k]
}
