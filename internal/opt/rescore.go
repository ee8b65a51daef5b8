package opt

// ScoreOption re-evaluates one option's expected gain under the
// evaluator's (fresh) profile, without re-running the search. The runtime
// uses it to decide whether a newly found plan beats the plan already
// deployed by enough to justify a reconfiguration (§3.2.2's "if the
// performance is not expected, Pipeleon will adjust" — and, implicitly,
// if it is as expected, leave it alone).
func (ev *Evaluator) ScoreOption(o *Option) float64 {
	switch o.Kind {
	case OptPipelet:
		sc := evalScratchPool.Get().(*evalScratch)
		defer evalScratchPool.Put(sc)
		sc.orderIdx = ev.appendIdx(sc.orderIdx[:0], o.Pipelet.Tables)
		baseline := ev.seqLatencyIdx(o.Pipelet.Tables, sc.orderIdx, nil)
		sc.orderIdx = ev.appendIdx(sc.orderIdx[:0], o.Order)
		lat := ev.seqLatencyIdx(o.Order, sc.orderIdx, o.Segments)
		return (baseline - lat) * ev.reachOf(o.Pipelet.Head())
	case OptGroupCombo:
		var g float64
		for _, m := range o.Members {
			if m != nil {
				g += ev.ScoreOption(m)
			}
		}
		return g
	case OptGroupCache:
		if re := ev.groupCacheOption(o.Group, ev.groupBranchFields(o.Group)); re != nil {
			return re.Gain
		}
	}
	return 0
}
