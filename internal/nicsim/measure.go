package nicsim

import (
	"runtime"
	"sync"

	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
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
// packets are not mutated.
//
// It runs in two stages. The walk, on the caller's goroutine, clones and
// processes the batch through the burst datapath in submission order:
// lookups, flow caches, the virtual clock and every counter, as per-packet
// Process calls would. The finish — measurement noise and the distinct-key
// and flow set inserts of an instrumented NIC — is order-independent, and
// on a batch of 512 packets or more (with more than one processor) a
// helper goroutine does it beside the walk; it is started and joined
// inside the call. After Measure returns, its Measurement, the collector's
// Snapshot and Counters are bit-identical to a per-packet Process loop over
// the same packets, cached programs included. While it runs, a concurrent
// Snapshot may see a chunk's counters before its keys; see profile.Burst
// for what a Swap or Collector.Reset racing it does to the keys.
func (n *NIC) Measure(pkts []*packet.Packet) Measurement {
	var m Measurement
	if len(pkts) == 0 {
		return m
	}
	lat := make([]float64, len(pkts))
	var tally burstTally
	n.walk(pkts, lat, &tally)

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

// MeasureParallel is Measure; workers is ignored. It exists only because
// the end-to-end benchmark's per-layer replay (bench/layers.go, a module
// of its own that only benchmark changes edit) calls it, and ROADMAP item
// 8 deletes it with that call.
func (n *NIC) MeasureParallel(pkts []*packet.Packet, workers int) Measurement { return n.Measure(pkts) }

// burstTally accumulates a walk's aggregate counts.
type burstTally struct {
	drops, migrations, vhits, counters, wireBytes int64
}

// burstRunner is the walk's scratch for the burst datapath: a fixed arena
// of packets cloned into, so measurement performs no per-packet heap
// allocation.
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

// walk is Measure's walk, through the burst datapath in order on the
// calling goroutine. It finishes inline unless the NIC has something to
// finish (a collector's sets to fill, noise to apply), the batch is long
// enough and a second processor is there to take the finish stage.
func (n *NIC) walk(pkts []*packet.Packet, lat []float64, tally *burstTally) {
	ctx := n.ctxPool.Get().(*procCtx)
	ctx.wantPath = false
	if ctx.arena == nil {
		ctx.arena = newBurstRunner()
	}
	br := ctx.arena
	pl := n.plan.Load()
	if (len(pl.shards) == 0 && pl.noiseStd <= 0) || len(pkts) < finishMinPkts || runtime.GOMAXPROCS(0) < 2 {
		for lo := 0; lo < len(pkts); lo += BurstSize {
			br.runRange(n, ctx, pkts, lo, min(lo+BurstSize, len(pkts)), lat, tally)
		}
	} else {
		n.walkAndFinish(br, ctx, pl, pkts, lat, tally)
	}
	n.ctxPool.Put(ctx)
}

// walkAndFinish is walk's two-stage form: it hands each chunk but
// the last to the helper and finishes the last one itself while the helper
// drains.
func (n *NIC) walkAndFinish(br *burstRunner, ctx *procCtx, pl *execPlan, pkts []*packet.Packet, lat []float64, tally *burstTally) {
	f := finisherPool.Get().(*finisher)
	go f.run(pl, lat)
	defer func() {
		// Also on a panicking walk: no helper outlives the call.
		f.full <- nil
		<-f.done
		if len(f.free) == finishDepth {
			finisherPool.Put(f)
		}
	}()
	for lo := 0; lo < len(pkts); lo += finishChunkPkts {
		hi := min(lo+finishChunkPkts, len(pkts))
		ch := <-f.free
		ch.lo, ch.hashes = lo, ch.hashes[:0]
		ctx.chunk = ch
		for b := lo; b < hi; b += BurstSize {
			br.runRange(n, ctx, pkts, b, min(b+BurstSize, hi), lat, tally)
		}
		ctx.chunk = nil
		if hi < len(pkts) {
			f.full <- ch
		} else {
			ch.finish(pl, lat)
			f.free <- ch
		}
	}
}

// finishChunkPkts is the size of a finish chunk, four bursts: a hand-off
// per 128 packets is a few hundred nanoseconds against tens of
// microseconds of walk, and the chunk's key log stays in cache.
const finishChunkPkts = 4 * BurstSize

// finishMinPkts is the shortest batch the helper takes part in. Waking it
// takes tens of microseconds, about as long as walking the chunk or two
// of a short batch it could take over: with the helper on the 128- and
// 256-packet batches a deploy guard measures, the rounds measuring them
// read 2–4 % slower.
const finishMinPkts = 4 * finishChunkPkts

// finishDepth is how many chunks a finisher holds, so how far the walk may
// run ahead of the helper. The helper's work is a fraction of the walk's,
// but it sleeps between chunks and waking it takes tens of microseconds (a
// collection or a preemption, milliseconds): with two chunks the walk of a
// DASH batch waited for it a third of its time, with four 7 %.
const finishDepth = 4

// finisher is the finish stage of one Measure call: its helper goroutine
// and the chunks that circulate between walk and helper — taken from free,
// filled by the walk, sent on full, finished and returned to free. A nil
// on full stops the helper, which then signals done. Channels and chunk
// buffers are recycled across calls through finisherPool: a batch's key
// log allocated per call is megabytes of garbage on a large program.
type finisher struct {
	chunks     [finishDepth]finishChunk
	free, full chan *finishChunk
	done       chan struct{}
}

// finishChunk is what the walk leaves of finishChunkPkts packets: their
// noiseless latencies (in Measure's lat, from index lo), their flow
// hashes, and the distinct keys their bursts noted.
type finishChunk struct {
	lo     int
	hashes []uint64
	keys   profile.KeyLog
}

var finisherPool = sync.Pool{New: func() any {
	f := &finisher{
		free: make(chan *finishChunk, finishDepth),
		full: make(chan *finishChunk, finishDepth),
		done: make(chan struct{}),
	}
	for i := range f.chunks {
		f.chunks[i].hashes = make([]uint64, 0, finishChunkPkts)
		f.free <- &f.chunks[i]
	}
	return f
}}

// run is the helper goroutine: it finishes chunks until the nil that ends
// the walk.
func (f *finisher) run(pl *execPlan, lat []float64) {
	for ch := <-f.full; ch != nil; ch = <-f.full {
		ch.finish(pl, lat)
		f.free <- ch
	}
	f.done <- struct{}{}
}

// finish applies the chunk's noise to its latencies and inserts its keys.
// The noise constants come from the NIC's Config, the same in every plan.
func (ch *finishChunk) finish(pl *execPlan, lat []float64) {
	if pl.noiseStd > 0 {
		l := lat[ch.lo : ch.lo+len(ch.hashes)]
		for i, h := range ch.hashes {
			l[i] = pl.applyNoise(l[i], h)
		}
	}
	ch.keys.Insert()
}

// runRange clones pkts[lo:hi] into the scratch arena, processes them as
// one burst on the caller's context, and records their latencies in
// lat[lo:hi] and their counts in t.
func (br *burstRunner) runRange(n *NIC, ctx *procCtx, pkts []*packet.Packet, lo, hi int, lat []float64, t *burstTally) {
	k := hi - lo
	for i := 0; i < k; i++ {
		pkts[lo+i].CloneInto(br.ptrs[i])
	}
	n.processBurst(ctx, br.ptrs[:k], br.results[:k])
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
