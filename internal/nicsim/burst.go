package nicsim

import "pipeleon/internal/packet"

// BurstSize is the default burst width of the batched datapath: the plan
// pointer is loaded and profiling counters are flushed once per
// BurstSize packets, amortizing dispatch the way a DPDK rx burst
// amortizes PCIe doorbells. 32 matches DPDK's conventional burst size.
const BurstSize = 32

// ProcessBurst runs pkts through the program in bursts of BurstSize,
// mutating the packets in place and filling results (which must be at
// least as long as pkts). It is the amortized form of Process: one
// scratch context is reused for the whole call, the execution plan is
// re-loaded at burst boundaries (so a concurrent Swap takes effect
// within BurstSize packets), and profiling counters accumulate locally
// and flush into the collector's shard once per burst.
//
// Results are bit-identical to per-packet Process calls — same latency
// arithmetic, same virtual-clock order, same counter totals — except
// that Result.Path is not recorded (path capture is a scalar-debugging
// feature; the burst path skips its per-node bookkeeping and per-packet
// allocation).
func (n *NIC) ProcessBurst(pkts []*packet.Packet, results []Result) {
	if len(pkts) == 0 {
		return
	}
	_ = results[len(pkts)-1]
	ctx := n.ctxPool.Get().(*procCtx)
	ctx.wantPath = false
	var dropped uint64
	for lo := 0; lo < len(pkts); lo += BurstSize {
		hi := lo + BurstSize
		if hi > len(pkts) {
			hi = len(pkts)
		}
		pl := n.plan.Load()
		sink := ctx.sink(pl)
		for i := lo; i < hi; i++ {
			n.run(pl, ctx, pkts[i], sink, &results[i])
			if results[i].Dropped {
				dropped++
			}
			ctx.reset()
		}
		sink.Flush()
	}
	n.noteBurst(uint64(len(pkts)), dropped)
	n.ctxPool.Put(ctx)
}

// noteBurst batches the processed/dropped accounting of a whole burst
// into two atomic adds.
func (n *NIC) noteBurst(processed, dropped uint64) {
	n.processed.Add(processed)
	if dropped > 0 {
		n.droppedCnt.Add(dropped)
	}
}
