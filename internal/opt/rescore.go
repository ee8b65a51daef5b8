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
		baseline := ev.seqLatencyIdx(o.Pipelet.Tables, ev.appendIdx(nil, o.Pipelet.Tables), nil)
		lat := ev.seqLatencyIdx(o.Order, ev.appendIdx(nil, o.Order), o.Segments)
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
