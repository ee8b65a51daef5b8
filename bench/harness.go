package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// windowRec is what one window measured. Host times are wall nanoseconds
// of this machine, each with the slowdown of the box while it was taken
// (probe.go); the Measurement is the emulator's modelled result.
type windowRec struct {
	measureNs   float64 // managed Measure calls only
	entryNs     float64 // dash-churn: entry operations through core.Runtime
	roundNs     float64
	measureSlow float64 // slowdown over the Measure calls and entry operations
	roundSlow   float64 // slowdown over the round
	packets     int
	m           target.Measurement // managed, aggregated over chunks and devices
	twinLatNs   float64            // twin mean latency, same aggregation
	modelErr    float64            // |ExpectedLatency − measured| ÷ measured
	round       roundInfo
}

// captured is what a traced pass keeps for the layer replay.
type captured struct {
	profiles []*profile.Profile // window profiles against the original program
	final    *p4ir.Program      // the program deployed when the pass ended
}

// passResult is everything one pass over a workload produced.
type passResult struct {
	rig        *rig
	wins       []windowRec
	entryOps   int     // dash-churn: entry operations through core.Runtime
	genNs      float64 // traffic generation, outside every timed region
	loopNs     float64 // wall time of the whole window loop, twin and generation included
	attempted  int     // operations attempted: Measure calls, rounds, entry ops, oracle comparisons
	failed     int     // operations failed, oracle mismatches included
	mismatches int     // oracle mismatches alone: the run's outputs were wrong
	failure    string  // the first failure, for the error message
	heapStart  uint64  // live heap after set-up, before the first window
	heapEnd    uint64  // live heap after the last window
	kept       captured
	cacheHits  uint64
	cacheMiss  uint64
	cacheInval uint64
}

// liveHeap collects twice, so that what sync.Pools held for the rigs of
// the set-up repeats is gone too, and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pass runs the window loop of one workload on a freshly built rig:
// window = generate (untimed) → Measure on the managed device and on its
// twin → one optimization round. One driver goroutine, closed loop: the
// next call is made when the previous one returned.
func pass(r *rig, in *inputs, windows int, tr *tracer) *passResult {
	w := r.w
	res := &passResult{rig: r}
	batches := make([][]*packet.Packet, len(r.devs))
	for i := range batches {
		batches[i] = make([]*packet.Packet, w.packets)
	}
	r.sample = make([]*packet.Packet, w.verifyPackets)
	params := costmodel.BlueField2()
	churner := &churner{r: r, in: in, res: res, tr: tr}
	probe := newSpeedProbe()
	roundLayer := "core"
	if r.ctl != nil {
		roundLayer = "fleet"
	}
	res.heapStart = liveHeap()
	loopStart := time.Now()

	for win := 0; win < windows; win++ {
		tr.setWindow(win)
		g := in.mixes[0]
		if w.rotate > 0 {
			g = in.mixes[(win/w.rotate)%len(in.mixes)]
		}
		t0 := time.Now()
		for _, b := range batches {
			g.BatchInto(b)
		}
		g.BatchInto(r.sample)
		res.genNs += float64(time.Since(t0))

		rec := windowRec{packets: w.packets * len(r.devs)}
		churner.rec = &rec
		wid := tr.push("bench", "window")
		p0 := probe.run()
		churning := w.churn && win >= windows/3 && win < 2*windows/3
		size := w.packets / w.chunks
		var lat, twinLat, tput, drops, mig, ctr, p99 float64
		for c := 0; c < w.chunks; c++ {
			if churning {
				churner.chunk()
			}
			for di, d := range r.devs {
				chunk := batches[di][c*size : (c+1)*size]
				t0 = time.Now()
				m, err := d.managed.Measure(chunk)
				rec.measureNs += float64(time.Since(t0))
				res.attempted++
				if err != nil {
					res.fail(fmt.Sprintf("window %d %s: Measure: %v", win, d.name, err))
					continue
				}
				// The oracle: the original program on a separate emulator
				// must see the same packets and drop the same share.
				tm := d.twin.Measure(chunk)
				if m.Packets != tm.Packets || m.DropRate != tm.DropRate {
					res.mismatches++
					res.fail(fmt.Sprintf("window %d %s: managed %d pkts drop %v, twin %d pkts drop %v",
						win, d.name, m.Packets, m.DropRate, tm.Packets, tm.DropRate))
				}
				n := float64(len(chunk))
				lat += m.MeanLatencyNs * n
				twinLat += tm.MeanLatencyNs * n
				tput += m.ThroughputGbps * n
				drops += m.DropRate * n
				mig += m.MeanMigrations * n
				ctr += m.MeanCounterUpdates * n
				p99 += m.P99LatencyNs * n
			}
		}
		if !churning && w.churn && win == 2*windows/3 {
			churner.drain()
		}
		p1 := probe.run()
		rec.measureSlow = slowdown(p0, p1)
		total := float64(rec.packets)
		rec.m = target.Measurement{
			Packets: rec.packets, MeanLatencyNs: lat / total, P99LatencyNs: p99 / total,
			ThroughputGbps: tput / total, DropRate: drops / total,
			MeanMigrations: mig / total, MeanCounterUpdates: ctr / total,
		}
		rec.twinLatNs = twinLat / total

		// Live model error (fig5's yardstick): the cost model on the
		// deployed program under this window's own profile against what
		// the device just measured. Harness work, so untimed.
		own := tr.bookkeeping()
		d0 := r.devs[0]
		prof, err := d0.managed.Profile(false)
		res.attempted++
		if err != nil {
			res.fail(fmt.Sprintf("window %d: Profile: %v", win, err))
		} else if prog := d0.managed.Program(); prog != nil {
			exp := costmodel.ExpectedLatency(prog, prof, params)
			rec.modelErr = math.Abs(exp-rec.m.MeanLatencyNs) / rec.m.MeanLatencyNs
		}
		if tr != nil {
			// The replay searches the original program, so it wants the
			// profile the controller would search with.
			if r.rt != nil {
				prof = r.rt.TranslatedCounters()
			}
			res.kept.keep(prof, win, windows)
		}
		own()

		rid := tr.push(roundLayer, "round")
		t0 = time.Now()
		rec.round = r.round()
		rec.roundNs = float64(time.Since(t0))
		tr.pop(rid)
		rec.roundSlow = slowdown(p1, probe.run())
		res.attempted++
		for _, msg := range rec.round.failures {
			res.fail(fmt.Sprintf("window %d round: %s", win, msg))
		}
		if r.ctl != nil {
			// The fleet controller never closes a profile window; the
			// operator loop does, so the next window's canary profile
			// describes the next window's traffic.
			own = tr.bookkeeping()
			for _, d := range r.devs {
				if _, err := d.managed.Profile(true); err != nil {
					res.fail(fmt.Sprintf("window %d %s: closing profile window: %v", win, d.name, err))
				}
			}
			own()
		}
		for _, d := range r.devs {
			// Nobody reads the twin's counters; closing its window too keeps
			// its distinct-key sets out of live_heap_mb.
			d.twinCol.Reset()
		}
		tr.pop(wid)
		res.wins = append(res.wins, rec)
	}
	res.loopNs = float64(time.Since(loopStart))
	res.finalOracle(in)
	for _, d := range r.devs {
		for _, cs := range d.nic.CacheStatsAll() {
			res.cacheHits += cs.Hits
			res.cacheMiss += cs.Misses
			res.cacheInval += cs.Invalidations
		}
	}
	res.kept.final = r.devs[0].nic.Program().Clone()
	res.heapEnd = liveHeap()
	return res
}

func (res *passResult) fail(msg string) {
	res.failed++
	if res.failure == "" {
		res.failure = msg
	}
}

// keep stores up to eight window profiles, evenly spaced over the pass.
func (c *captured) keep(p *profile.Profile, win, windows int) {
	step := (windows + 7) / 8
	if p != nil && win%step == 0 {
		c.profiles = append(c.profiles, p)
	}
}

// finalOracle sends 4 096 fresh packets through NIC.Process on every
// managed emulator and its twin and compares drop flag and wire bytes
// packet by packet.
func (res *passResult) finalOracle(in *inputs) {
	fresh := in.mixes[0].Batch(oraclePackets)
	for _, d := range res.rig.devs {
		for i, p := range fresh {
			a, b := p.Clone(), p.Clone()
			ra, rb := d.nic.Process(a), d.twin.Process(b)
			res.attempted++
			if ra.Dropped != rb.Dropped || !bytes.Equal(a.Serialize(), b.Serialize()) {
				res.mismatches++
				res.fail(fmt.Sprintf("final oracle %s packet %d: managed dropped=%v, twin dropped=%v, or bytes differ",
					d.name, i, ra.Dropped, rb.Dropped))
			}
		}
	}
}

// churner applies dash-churn's entry churn through core.Runtime: each
// chunk inserts churnPairs fresh conntrack entries and deletes the ones
// the previous chunk inserted, so the table keeps its size. Only the calls
// through the runtime are timed; the twin is updated afterwards.
type churner struct {
	r    *rig
	in   *inputs
	res  *passResult
	tr   *tracer
	rec  *windowRec // the window the operations are charged to
	next int
	prev []p4ir.Entry
}

func (c *churner) chunk() {
	fresh := make([]p4ir.Entry, churnPairs)
	for i := range fresh {
		fresh[i] = c.in.churnKeys[c.next%len(c.in.churnKeys)]
		c.next++
	}
	c.apply(fresh, c.prev)
	c.prev = fresh
}

// drain deletes what the last chunk inserted, returning the table to its
// initial contents.
func (c *churner) drain() {
	c.apply(nil, c.prev)
	c.prev = nil
}

func (c *churner) apply(ins, del []p4ir.Entry) {
	rt, twin, res := c.r.rt, c.r.devs[0].twin, c.res
	id := c.tr.push("core", "entries")
	t0 := time.Now()
	for _, e := range ins {
		if err := rt.InsertEntry(churnTable, e); err != nil {
			res.fail(fmt.Sprintf("insert into %s: %v", churnTable, err))
		}
	}
	for _, e := range del {
		if err := rt.DeleteEntry(churnTable, e.Match); err != nil {
			res.fail(fmt.Sprintf("delete from %s: %v", churnTable, err))
		}
	}
	c.rec.entryNs += float64(time.Since(t0))
	c.tr.pop(id)
	res.entryOps += len(ins) + len(del)
	res.attempted += len(ins) + len(del)
	for _, e := range ins {
		if err := twin.InsertEntry(churnTable, e); err != nil {
			res.fail(fmt.Sprintf("twin: insert into %s: %v", churnTable, err))
		}
	}
	for _, e := range del {
		if err := twin.DeleteEntry(churnTable, e.Match); err != nil {
			res.fail(fmt.Sprintf("twin: delete from %s: %v", churnTable, err))
		}
	}
}
