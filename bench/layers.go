package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/analysis/absint"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/deps"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/pipelet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
	"pipeleon/internal/synth"
	"pipeleon/internal/trafficgen"
)

// perLayerMetrics are reported by the traced run and never gated. Their
// times are wall times as this box's clock read them (bench.slowdown says
// how slow the box was). A value
// of 0 means the layer is not on the workload's path (controlplane and
// fleet outside fleet-remote, the proof outside synth-proof, ...).
// "moves" names the end-to-end metric a change to the layer should move.
var perLayerMetrics = []metricDef{
	{name: "packet.clone_ns", unit: "ns", better: "lower", doc: "replay: Packet.CloneInto per packet; moves datapath_mpps"},
	{name: "trafficgen.gen_ns_per_pkt", unit: "ns", better: "lower", doc: "replay: Generator.BatchInto per packet; generator health, must stay under a third of the datapath's ns/pkt"},
	{name: "nicsim.floor_ns_per_pkt", unit: "ns", better: "lower", doc: "replay: ProcessBurst per packet on a one-no-op-table program, un-instrumented"},
	{name: "nicsim.tables_ns_per_pkt", unit: "ns", better: "lower", doc: "replay: ProcessBurst per packet on the workload's original program, un-instrumented, minus floor; moves datapath_mpps"},
	{name: "nicsim.optimized_ns_per_pkt", unit: "ns", better: "lower", doc: "replay: same on the program deployed when the pass ended"},
	{name: "nicsim.lookup_exact_ns", unit: "ns", better: "lower", doc: "replay: ProcessBurst per packet on a single 1 024-entry exact table, minus floor"},
	{name: "nicsim.lookup_lpm_ns", unit: "ns", better: "lower", doc: "replay: same, LPM over three prefix lengths"},
	{name: "nicsim.lookup_ternary_ns", unit: "ns", better: "lower", doc: "replay: same, ternary over five masks"},
	{name: "nicsim.lookup_range_ns", unit: "ns", better: "lower", doc: "replay: same, range over five masks"},
	{name: "nicsim.allocs_per_pkt", unit: "count", better: "lower", doc: "replay: heap allocations per packet of ProcessBurst on the original program"},
	{name: "nicsim.new_ms", unit: "ms", better: "lower", doc: "replay: nicsim.New on the original program; moves setup_s"},
	{name: "nicsim.swap_ms", unit: "ms", better: "lower", doc: "replay: NIC.Swap between the original and the final program; moves round_ms_mean on synth-shift"},
	{name: "nicsim.entry_op_us", unit: "us", better: "lower", doc: "replay: NIC.InsertEntry+DeleteEntry per operation at the workload's table size; moves run_s on dash-churn"},
	{name: "nicsim.cache_hit_ratio", unit: "ratio", better: "higher", doc: "traced pass: flow-cache hits ÷ lookups over all devices; moves sim_latency_ns"},
	{name: "nicsim.cache_invalidations", unit: "count", better: "lower", doc: "traced pass: flow-cache invalidations; dash-churn against dash-steady"},
	{name: "nicsim.migrations_per_pkt", unit: "count", better: "lower", doc: "traced pass: mean tier migrations per packet"},
	{name: "nicsim.counter_updates_per_pkt", unit: "count", better: "lower", doc: "traced pass: mean profiling counter updates per packet"},
	{name: "nicsim.sim_p99_latency_ns", unit: "ns", better: "lower", doc: "traced pass: mean over windows of modelled p99 latency"},
	{name: "nicsim.parallel_speedup_w2", unit: "ratio", better: "higher", doc: "replay: MeasureParallel(b, 2) rate ÷ Measure rate, original program un-instrumented; settles whether the ring datapath scales on this box"},
	{name: "profile.sink_ns_per_pkt", unit: "ns", better: "lower", doc: "replay: instrumented minus un-instrumented ProcessBurst per packet; moves datapath_mpps"},
	{name: "profile.snapshot_us", unit: "us", better: "lower", doc: "traced pass: Profile span on the Local device inside a round; the floor of a dash round"},
	{name: "profile.sim_overhead_pct", unit: "%", better: "lower", doc: "replay: modelled latency with Instrument on against off (fig12); moves sim_latency_ns"},
	{name: "costmodel.expected_latency_us", unit: "us", better: "lower", doc: "replay: one ExpectedLatency call on the original program"},
	{name: "costmodel.err_pct_max", unit: "%", better: "lower", doc: "traced pass: worst window of model_err_pct"},
	{name: "pipelet.form_us", unit: "us", better: "lower", doc: "replay: pipelet.Form; core runs it every round"},
	{name: "pipelet.count", unit: "count", better: "lower", doc: "pipelets of the original program"},
	{name: "deps.analyzer_us", unit: "us", better: "lower", doc: "replay: deps.NewAnalyzer; moves setup_s"},
	{name: "opt.session_new_ms", unit: "ms", better: "lower", doc: "replay: opt.NewSession; moves setup_s"},
	{name: "opt.search_cold_ms", unit: "ms", better: "lower", doc: "replay: first Search of a fresh session"},
	{name: "opt.search_warm_us", unit: "us", better: "lower", doc: "replay: Search repeated on an unchanged profile"},
	{name: "opt.search_round_ms_p50", unit: "ms", better: "lower", doc: "traced pass: median RoundReport.SearchTime of rounds that searched (fleet-remote: the mean, the controller reports a total); moves round_ms_mean on synth-shift, not on dash-steady"},
	{name: "opt.search_time_share", unit: "ratio", better: "lower", doc: "traced pass: summed SearchTime ÷ run_s; the bypass check: under 0.05 on dash-steady and fleet-remote"},
	{name: "opt.apply_ms", unit: "ms", better: "lower", doc: "replay: opt.Apply of a found plan"},
	{name: "opt.allocs_per_search", unit: "count", better: "lower", doc: "replay: heap allocations per warm-session Search on a changed profile"},
	{name: "opt.candidates_per_round", unit: "count", better: "lower", doc: "replay: mean SearchResult.CandidatesEvaluated over the captured window profiles"},
	{name: "opt.unit_hit_ratio", unit: "ratio", better: "higher", doc: "traced pass: session unit-memo hits ÷ lookups"},
	{name: "opt.verify_hit_ratio", unit: "ratio", better: "higher", doc: "traced pass: session verdict-memo hits ÷ lookups"},
	{name: "opt.plan_size_mean", unit: "count", better: "higher", doc: "mean options per chosen plan"},
	{name: "opt.placement_plan_ms", unit: "ms", better: "lower", doc: "replay only: GreedyPlacementPlan with every third table floored to tier 1"},
	{name: "opt.hetero_estimate_us", unit: "us", better: "lower", doc: "replay only: EstimateHeteroLatency on that placement"},
	{name: "analysis.lint_ms", unit: "ms", better: "lower", doc: "replay: analysis.Lint of the final program under the device's cost model; core runs it before every deploy"},
	{name: "analysis.verify_rewrite_ms", unit: "ms", better: "lower", doc: "replay: VerifyRewrite(original, final)"},
	{name: "analysis.checker_new_ms", unit: "ms", better: "lower", doc: "replay, proof workloads: NewSemanticChecker; moves setup_s on synth-proof"},
	{name: "analysis.verify_semantics_ms", unit: "ms", better: "lower", doc: "replay, proof workloads: SemanticChecker.Verify of the final program; moves round_ms_mean on synth-proof"},
	{name: "analysis.lint_deep_ms", unit: "ms", better: "lower", doc: "replay, proof workloads: LintDeep of the final program"},
	{name: "absint.analyze_ms", unit: "ms", better: "lower", doc: "replay, proof workloads: absint.Analyze of the original program"},
	{name: "analysis.deep_round_ratio", unit: "ratio", better: "lower", doc: "proof workloads: median round with the proof on ÷ off over the same windows; 1 − 1/ratio is the proof's share of a round"},
	{name: "core.round_ms_p50", unit: "ms", better: "lower", doc: "traced pass: median round; not gated: rounds come in kinds (skipped, searched, deployed) and the median flips between two of them from seed to seed"},
	{name: "core.round_ms_p95", unit: "ms", better: "lower", doc: "traced pass: 95th percentile round; not gated, it does not repeat within a tenth on a shared 2-core box"},
	{name: "core.round_ms_max", unit: "ms", better: "lower", doc: "traced pass: slowest round"},
	{name: "core.round_self_ms", unit: "ms", better: "lower", doc: "traced pass: mean of round − target children − SearchTime: lint, program compare, clone, counter translation, change detection"},
	{name: "core.rounds_skipped_share", unit: "ratio", better: "lower", doc: "traced pass: rounds skipped as unchanged"},
	{name: "core.rounds_deployed_share", unit: "ratio", better: "higher", doc: "traced pass: rounds that swapped a program in"},
	{name: "core.rollback_share", unit: "ratio", better: "lower", doc: "traced pass: rounds rolled back by the guard"},
	{name: "core.breaker_open_rounds", unit: "count", better: "lower", doc: "traced pass: rounds the circuit breaker paused"},
	{name: "core.gain_realized_ratio", unit: "ratio", better: "higher", doc: "traced pass: mean of −VerifyDelta ÷ (Gain ÷ BaselineLatency) over verified deploys; moves sim_gain_pct"},
	{name: "core.entry_op_us", unit: "us", better: "lower", doc: "traced pass: mean time of one entry operation through core.Runtime; moves run_s on dash-churn"},
	{name: "core.heap_bytes_per_round", unit: "B", better: "lower", doc: "traced pass: live-heap growth from first to last window ÷ rounds; moves live_heap_mb"},
	{name: "target.profile_us", unit: "us", better: "lower", doc: "traced pass: mean Profile span on the device"},
	{name: "target.cachestats_us", unit: "us", better: "lower", doc: "traced pass: mean CacheStats span"},
	{name: "target.deploy_ms", unit: "ms", better: "lower", doc: "traced pass: mean Deploy span on the device; moves round_ms_mean"},
	{name: "target.commit_us", unit: "us", better: "lower", doc: "traced pass: mean Commit span"},
	{name: "target.measure_ns_per_pkt", unit: "ns", better: "lower", doc: "traced pass: device-side Measure time ÷ packets; moves datapath_mpps"},
	{name: "controlplane.rtt_us", unit: "us", better: "lower", doc: "fleet-remote: median Ping round trip over host loopback"},
	{name: "controlplane.deploy_rpc_ms", unit: "ms", better: "lower", doc: "fleet-remote: mean client-side Deploy span"},
	{name: "controlplane.deploy_wire_ms", unit: "ms", better: "lower", doc: "fleet-remote: client-side Deploy span minus the device span it caused: JSON, framing, lint on the server"},
	{name: "controlplane.profile_rpc_us", unit: "us", better: "lower", doc: "fleet-remote: mean client-side Profile span"},
	{name: "controlplane.measure_ns_per_pkt", unit: "ns", better: "lower", doc: "fleet-remote: client-side Measure time ÷ packets; moves datapath_mpps"},
	{name: "controlplane.entry_rpc_us", unit: "us", better: "lower", doc: "fleet-remote: mean client-side insert/delete span; moves run_s on dash-churn"},
	{name: "fleet.self_ms", unit: "ms", better: "lower", doc: "fleet-remote: mean of rollout round − device children: planning, staging"},
	{name: "fleet.plancache_hit_ratio", unit: "ratio", better: "higher", doc: "fleet-remote: PlanCache hits ÷ lookups"},
	{name: "fleet.session_pool_hit_ratio", unit: "ratio", better: "higher", doc: "fleet-remote: session-pool hits ÷ lookups"},
	{name: "fleet.devices_committed_share", unit: "ratio", better: "higher", doc: "fleet-remote: devices committed or converged ÷ devices covered by rollouts"},
	{name: "fleet.stages_per_rollout", unit: "count", better: "lower", doc: "fleet-remote: mean stages of rounds that rolled out"},
	{name: "fleet.probe_all_ms", unit: "ms", better: "lower", doc: "fleet-remote: one Controller.ProbeAll"},
	{name: "p4c.compile_ms", unit: "ms", better: "lower", doc: "replay, dash: p4c.Compile of testdata/dash.p4; moves setup_s"},
	{name: "p4ir.marshal_ms", unit: "ms", better: "lower", doc: "replay: Program.MarshalJSON; core compares programs by it, deploys ship it"},
	{name: "p4ir.load_ms", unit: "ms", better: "lower", doc: "replay: p4ir.Load of that JSON"},
	{name: "p4ir.clone_us", unit: "us", better: "lower", doc: "replay: Program.Clone"},
	{name: "p4ir.program_json_bytes", unit: "B", better: "lower", doc: "size of the original program's JSON"},
	{name: "synth.program_ms", unit: "ms", better: "lower", doc: "replay, synth: synth.Program; moves setup_s"},
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", doc: "run_s of the traced pass against an untraced pass over the same windows"},
	{name: "bench.generator_share", unit: "ratio", better: "lower", doc: "traffic generation ÷ wall time of the window loop"},
	{name: "bench.slowdown", unit: "ratio", better: "lower", doc: "traced pass: median over windows of speed-probe time ÷ its reference time; the factor the gated host times are divided by, 1 on a quiet reference box"},
	{name: "bench.wall_run_s", unit: "s", better: "lower", doc: "traced pass: run_s as this box's clock read it, before the division by the slowdown"},
}

// runTraced produces the per-layer metrics: an untraced and a traced pass
// over the same inputs at half the windows each (their difference is the
// tracing overhead, and their modelled results must agree exactly), for
// proof workloads a third pass with the proof off, then the layer replay.
func runTraced(w *workload, seed uint64, seconds float64) (*outcome, error) {
	windows := w.windows(seconds) / 2
	if windows < 3 {
		windows = 3
	}
	o := &outcome{correct: true}
	one := func(deep bool, tr *tracer) (*passResult, *inputs, error) {
		in := w.inputs(seed)
		r, _, err := system(w, in, deep, tr, false)
		if err != nil {
			return nil, nil, err
		}
		p := pass(r, in, windows, tr)
		o.add(p)
		return p, in, nil
	}
	plain, _, err := one(w.deep, nil)
	if err != nil {
		return nil, err
	}
	plain.rig.close()
	tr := newTracer(w.name)
	traced, in, err := one(w.deep, tr)
	if err != nil {
		return nil, err
	}
	defer traced.rig.close()
	for i := range traced.wins {
		if a, b := plain.wins[i].m, traced.wins[i].m; a != b {
			o.correct = false
			o.failed++
			o.failure = fmt.Sprintf("window %d: traced pass measured %+v, untraced %+v: tracing changed the system's behaviour", i, b, a)
			break
		}
	}
	m := map[string]float64{}
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	o.metrics = m
	if w.devices > 1 {
		if err := wireMetrics(m, traced.rig, in, tr); err != nil {
			return nil, err
		}
	}
	roundNs := column(traced.wins, func(w *windowRec) float64 { return w.roundNs })
	if err := tr.check(sum(roundNs)); err != nil {
		return nil, err
	}
	o.spans = tr.spans
	m["bench.trace_overhead_pct"] = 100 * (traced.runSeconds()/plain.runSeconds() - 1)
	m["bench.generator_share"] = traced.genNs / traced.loopNs
	m["bench.slowdown"] = traced.slowdown()
	m["bench.wall_run_s"] = traced.wallSeconds()
	spanMetrics(m, tr, traced)
	passMetrics(m, traced, roundNs)
	if w.deep {
		off, _, err := one(false, nil)
		if err != nil {
			return nil, err
		}
		off.rig.close()
		m["analysis.deep_round_ratio"] = median(roundNs) / median(column(off.wins, func(w *windowRec) float64 { return w.roundNs }))
	}
	if err := replay(m, w, in, traced); err != nil {
		return nil, err
	}
	return o, nil
}

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// passMetrics fills the metrics read off the traced pass's reports and
// counters.
func passMetrics(m map[string]float64, p *passResult, roundNs []float64) {
	n := float64(len(p.wins))
	m["nicsim.cache_hit_ratio"] = ratio(p.cacheHits, p.cacheMiss)
	m["nicsim.cache_invalidations"] = float64(p.cacheInval)
	m["nicsim.migrations_per_pkt"] = mean(column(p.wins, func(w *windowRec) float64 { return w.m.MeanMigrations }))
	m["nicsim.counter_updates_per_pkt"] = mean(column(p.wins, func(w *windowRec) float64 { return w.m.MeanCounterUpdates }))
	m["nicsim.sim_p99_latency_ns"] = mean(column(p.wins, func(w *windowRec) float64 { return w.m.P99LatencyNs }))
	m["costmodel.err_pct_max"] = 100 * slices.Max(column(p.wins, func(w *windowRec) float64 { return w.modelErr }))
	m["core.round_ms_p50"] = median(roundNs) / 1e6
	m["core.round_ms_p95"] = stats.Percentile(roundNs, 95) / 1e6
	m["core.round_ms_max"] = slices.Max(roundNs) / 1e6
	m["core.heap_bytes_per_round"] = (float64(p.heapEnd) - float64(p.heapStart)) / n

	var searchNs, planSizes, gainRatios []float64
	var skipped, deployed, rolledBack, breaker, stages, rollouts, committed, covered float64
	for _, w := range p.wins {
		ri := w.round
		if ri.searched {
			searchNs = append(searchNs, ri.searchNs)
			planSizes = append(planSizes, float64(ri.planSize))
		}
		if ri.gainRatio != 0 {
			gainRatios = append(gainRatios, ri.gainRatio)
		}
		skipped += b2f(ri.skipped)
		deployed += b2f(ri.deployed)
		rolledBack += b2f(ri.rolledBack)
		breaker += b2f(ri.breakerOpen)
		if ri.stages > 0 {
			rollouts++
			stages += float64(ri.stages)
		}
		committed += float64(ri.committed)
		covered += float64(ri.attempted)
	}
	m["core.rounds_skipped_share"] = skipped / n
	m["core.rounds_deployed_share"] = deployed / n
	m["core.rollback_share"] = rolledBack / n
	m["core.breaker_open_rounds"] = breaker
	if len(searchNs) > 0 {
		m["opt.search_time_share"] = sum(searchNs) / 1e9 / p.wallSeconds()
		m["opt.search_round_ms_p50"] = median(searchNs) / 1e6
		m["opt.plan_size_mean"] = mean(planSizes)
	}
	if len(gainRatios) > 0 {
		m["core.gain_realized_ratio"] = mean(gainRatios)
	}
	r := p.rig
	if r.rt != nil {
		st := r.rt.Status()
		m["opt.unit_hit_ratio"] = ratio(st.SearchUnitHits, st.SearchUnitMisses)
		m["opt.verify_hit_ratio"] = ratio(st.SearchVerifyHits, st.SearchVerifyMisses)
		if p.entryOps > 0 {
			m["core.entry_op_us"] = sum(column(p.wins, func(w *windowRec) float64 { return w.entryNs })) / float64(p.entryOps) / 1e3
		}
		return
	}
	st := r.ctl.Status()
	m["opt.unit_hit_ratio"] = ratio(st.OptSearch.UnitHits, st.OptSearch.UnitMisses)
	m["opt.verify_hit_ratio"] = ratio(st.OptSearch.VerifyHits, st.OptSearch.VerifyMisses)
	if st.OptSearch.Rounds > 0 {
		// The controller reports search time only as a total.
		m["opt.search_round_ms_p50"] = float64(st.OptSearch.TotalSearchNs) / float64(st.OptSearch.Rounds) / 1e6
		m["opt.search_time_share"] = float64(st.OptSearch.TotalSearchNs) / 1e9 / p.wallSeconds()
	}
	m["fleet.plancache_hit_ratio"] = ratio(st.PlanCache.Hits, st.PlanCache.Misses)
	m["fleet.session_pool_hit_ratio"] = ratio(st.OptSearch.PoolHits, st.OptSearch.PoolMisses)
	if covered > 0 {
		m["fleet.devices_committed_share"] = committed / covered
	}
	if rollouts > 0 {
		m["fleet.stages_per_rollout"] = stages / rollouts
	}
}

// wireMetrics times, after the windows of fleet-remote, what the windows
// do not exercise: Ping round trips on a second connection, entry
// operations over the device RPC (their spans feed
// controlplane.entry_rpc_us), and one ProbeAll.
func wireMetrics(m map[string]float64, r *rig, in *inputs, tr *tracer) error {
	d := r.devs[0]
	var rtts []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := d.ping.Ping(); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		rtts = append(rtts, float64(time.Since(t0)))
	}
	m["controlplane.rtt_us"] = median(rtts) / 1e3
	table, e, err := in.freshEntry(r.prog)
	if err != nil {
		return err
	}
	for i := 0; i < 64; i++ {
		if err := d.managed.InsertEntry(table, e); err != nil {
			return fmt.Errorf("insert over RPC: %w", err)
		}
		if err := d.managed.DeleteEntry(table, e.Match); err != nil {
			return fmt.Errorf("delete over RPC: %w", err)
		}
	}
	defer tr.bookkeeping()()
	m["fleet.probe_all_ms"] = timeIt(r.ctl.ProbeAll) / 1e6
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// spanMetrics fills the metrics read off the spans: the time inside each
// device call, on each side of the wire, and what is left of a round.
func spanMetrics(m map[string]float64, tr *tracer, p *passResult) {
	cov := tr.covered()
	meanOf := func(layer string, names ...string) float64 {
		var v []float64
		for _, n := range names {
			v = append(v, tr.named(layer, n)...)
		}
		if len(v) == 0 {
			return 0
		}
		return mean(v)
	}
	perPacket := func(layer string) float64 {
		var ns, pkts float64
		for _, s := range tr.spans {
			if s.Layer == layer && s.Name == "measure" {
				ns += s.ns()
				pkts += float64(s.Packets)
			}
		}
		if pkts == 0 {
			return 0
		}
		return ns / pkts
	}
	m["target.profile_us"] = meanOf("target", "profile") / 1e3
	m["profile.snapshot_us"] = m["target.profile_us"]
	m["target.cachestats_us"] = meanOf("target", "cachestats") / 1e3
	m["target.deploy_ms"] = meanOf("target", "deploy") / 1e6
	m["target.commit_us"] = meanOf("target", "commit") / 1e3
	m["target.measure_ns_per_pkt"] = perPacket("target")
	m["controlplane.deploy_rpc_ms"] = meanOf("controlplane", "deploy") / 1e6
	m["controlplane.profile_rpc_us"] = meanOf("controlplane", "profile") / 1e3
	m["controlplane.measure_ns_per_pkt"] = perPacket("controlplane")
	m["controlplane.entry_rpc_us"] = meanOf("controlplane", "insert", "delete") / 1e3

	var wire, self []float64
	for i, s := range tr.spans {
		switch {
		case s.Layer == "controlplane" && s.Name == "deploy":
			wire = append(wire, s.ns()-cov[i])
		case s.Name == "round":
			self = append(self, s.ns()-cov[i]-p.wins[s.Window].round.searchNs)
		}
	}
	if len(wire) > 0 {
		m["controlplane.deploy_wire_ms"] = mean(wire) / 1e6
	}
	if p.rig.rt != nil {
		m["core.round_self_ms"] = mean(self) / 1e6
	} else {
		m["fleet.self_ms"] = mean(self) / 1e6
	}
}

// timeIt returns the median wall time of f in nanoseconds. A call slower
// than 50 ms is measured once; faster ones repeat for about 30 ms, so the
// whole replay stays within a few seconds.
func timeIt(f func()) float64 {
	t0 := time.Now()
	f()
	first := float64(time.Since(t0))
	if first > 50e6 {
		return first
	}
	v := []float64{first}
	for total := first; total < 30e6 && len(v) < 200; {
		t0 = time.Now()
		f()
		d := float64(time.Since(t0))
		v = append(v, d)
		total += d
	}
	return median(v)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// burster times ProcessBurst alone: the batch is cloned into scratch
// packets outside the timed region, then processed in bursts of 32.
type burster struct {
	batch   []*packet.Packet
	scratch []packet.Packet
	ptrs    []*packet.Packet
	results []nicsim.Result
}

func newBurster(batch []*packet.Packet) *burster {
	b := &burster{batch: batch, scratch: make([]packet.Packet, len(batch)),
		ptrs: make([]*packet.Packet, len(batch)), results: make([]nicsim.Result, nicsim.BurstSize)}
	for i := range b.ptrs {
		b.ptrs[i] = &b.scratch[i]
	}
	return b
}

// nsPerPacket is the median over five passes of the batch; the first
// pass also fills any flow cache of the program.
func (b *burster) nsPerPacket(nic *nicsim.NIC) float64 {
	var v []float64
	for rep := 0; rep < 5; rep++ {
		for i, p := range b.batch {
			p.CloneInto(b.ptrs[i])
		}
		t0 := time.Now()
		for i := 0; i < len(b.ptrs); i += nicsim.BurstSize {
			end := i + nicsim.BurstSize
			if end > len(b.ptrs) {
				end = len(b.ptrs)
			}
			nic.ProcessBurst(b.ptrs[i:end], b.results[:end-i])
		}
		v = append(v, float64(time.Since(t0))/float64(len(b.ptrs)))
	}
	return median(v)
}

// lookupProgram is a single table of 1 024 entries of one match kind on
// ipv4.dstAddr, hit by the flows it was built from.
func lookupProgram(kind p4ir.MatchKind, flows []trafficgen.Flow) (*p4ir.Program, error) {
	key := p4ir.Key{Field: "ipv4.dstAddr", Kind: kind, Width: 32}
	ts := p4ir.TableSpec{
		Name: "lookup", Keys: []p4ir.Key{key},
		Actions:       []*p4ir.Action{p4ir.NewAction("hit", p4ir.Prim("modify_field", "meta.hit", "1")), p4ir.NoopAction("miss")},
		DefaultAction: "miss",
	}
	seen := map[p4ir.MatchValue]bool{}
	for i := 0; len(ts.Entries) < 1024 && i < len(flows); i++ {
		mv := p4ir.MatchValue{Value: uint64(flows[i].Dst)}
		prio := 0
		switch kind {
		case p4ir.MatchLPM:
			mv.PrefixLen = []int{32, 28, 24}[i%3]
			mv.Value &= key.PrefixMask(mv.PrefixLen)
		case p4ir.MatchTernary, p4ir.MatchRange:
			mv.Mask = key.PrefixMask(32 - 2*(i%5))
			mv.Value &= mv.Mask
			prio = 10 - i%5
		}
		if !seen[mv] {
			seen[mv] = true
			ts.Entries = append(ts.Entries, p4ir.Entry{Priority: prio, Match: []p4ir.MatchValue{mv}, Action: "hit"})
		}
	}
	return p4ir.ChainTables("lookup-"+kind.String(), []p4ir.TableSpec{ts})
}

// replayBatch is the packet batch the datapath replays run over; the
// smoke test shrinks it.
var replayBatch = 8192

// replay feeds what the traced pass captured — window profiles and the
// final program — to each layer's public functions in isolation and times
// them.
func replay(m map[string]float64, w *workload, in *inputs, p *passResult) error {
	pm := costmodel.BlueField2()
	orig := p.rig.prog
	final := p.kept.final
	profs := p.kept.profiles
	if len(profs) == 0 {
		return fmt.Errorf("replay: the traced pass captured no window profile")
	}
	cfg := opt.DefaultConfig()
	cfg.DeepVerify = w.deep
	plain := func(prog *p4ir.Program, instrument bool) (*nicsim.NIC, error) {
		return nicsim.New(prog.Clone(), nicConfig(in.seed, profile.NewCollector(), instrument))
	}

	// packet, trafficgen
	g := in.mixes[0]
	batch := g.Batch(replayBatch)
	dst := make([]packet.Packet, len(batch))
	m["packet.clone_ns"] = timeIt(func() {
		for i, pk := range batch {
			pk.CloneInto(&dst[i])
		}
	}) / float64(len(batch))
	gen := make([]*packet.Packet, len(batch))
	g.BatchInto(gen)
	m["trafficgen.gen_ns_per_pkt"] = timeIt(func() { g.BatchInto(gen) }) / float64(len(gen))

	// nicsim datapath by ablation
	bu := newBurster(batch)
	floorProg, err := p4ir.ChainTables("floor", []p4ir.TableSpec{{
		Name: "noop", Keys: []p4ir.Key{{Field: "ipv4.tos", Kind: p4ir.MatchExact, Width: 8}},
		Actions: []*p4ir.Action{p4ir.NoopAction("pass")}, DefaultAction: "pass",
	}})
	if err != nil {
		return err
	}
	emulator := func(prog *p4ir.Program, instrument bool) *nicsim.NIC {
		nic, nerr := plain(prog, instrument)
		if nerr != nil && err == nil {
			err = fmt.Errorf("replay: emulator for %s: %w", prog.Name, nerr)
		}
		return nic
	}
	floorNIC, tablesNIC, finalNIC, sinkNIC := emulator(floorProg, false), emulator(orig, false), emulator(final, false), emulator(orig, true)
	if err != nil {
		return err
	}
	floor := bu.nsPerPacket(floorNIC)
	m["nicsim.floor_ns_per_pkt"] = floor
	before := mallocs()
	tables := bu.nsPerPacket(tablesNIC)
	m["nicsim.allocs_per_pkt"] = float64(mallocs()-before) / float64(5*len(batch))
	m["nicsim.tables_ns_per_pkt"] = tables - floor
	m["nicsim.optimized_ns_per_pkt"] = bu.nsPerPacket(finalNIC) - floor
	m["profile.sink_ns_per_pkt"] = bu.nsPerPacket(sinkNIC) - tables
	flows := trafficgen.UniformFlows(in.seed, 4096)
	lg := trafficgen.New(in.seed, trafficgen.DefaultPacketBytes)
	lg.AddFlows(flows...)
	lb := newBurster(lg.Batch(replayBatch))
	for _, k := range []struct {
		name string
		kind p4ir.MatchKind
	}{{"exact", p4ir.MatchExact}, {"lpm", p4ir.MatchLPM}, {"ternary", p4ir.MatchTernary}, {"range", p4ir.MatchRange}} {
		prog, err := lookupProgram(k.kind, flows)
		if err != nil {
			return err
		}
		nic, err := plain(prog, false)
		if err != nil {
			return fmt.Errorf("replay: %s lookup emulator: %w", k.name, err)
		}
		m["nicsim.lookup_"+k.name+"_ns"] = lb.nsPerPacket(nic) - floor
	}
	off, on := tablesNIC.Measure(batch), sinkNIC.Measure(batch)
	m["profile.sim_overhead_pct"] = 100 * (on.MeanLatencyNs/off.MeanLatencyNs - 1)
	serial := timeIt(func() { tablesNIC.Measure(batch) })
	m["nicsim.parallel_speedup_w2"] = serial / timeIt(func() { tablesNIC.MeasureParallel(batch, 2) })

	// nicsim control path
	m["nicsim.new_ms"] = timeIt(func() { _, err = plain(orig, true) }) / 1e6
	if err != nil {
		return err
	}
	swapTo := []*p4ir.Program{final, orig}
	i := 0
	m["nicsim.swap_ms"] = timeIt(func() {
		err = sinkNIC.Swap(swapTo[i%2].Clone())
		i++
	}) / 1e6
	if err != nil {
		return fmt.Errorf("replay: swap: %w", err)
	}
	table, entry, err := in.freshEntry(orig)
	if err != nil {
		return err
	}
	m["nicsim.entry_op_us"] = timeIt(func() {
		if err = tablesNIC.InsertEntry(table, entry); err == nil {
			err = tablesNIC.DeleteEntry(table, entry.Match)
		}
	}) / 2 / 1e3
	if err != nil {
		return fmt.Errorf("replay: entry operation: %w", err)
	}

	// costmodel, pipelet, deps
	m["costmodel.expected_latency_us"] = timeIt(func() { costmodel.ExpectedLatency(orig, profs[0], pm) }) / 1e3
	var part *pipelet.Partition
	m["pipelet.form_us"] = timeIt(func() { part, err = pipelet.Form(orig, cfg.MaxPipeletLen) }) / 1e3
	if err != nil {
		return err
	}
	m["pipelet.count"] = float64(len(part.Pipelets))
	m["deps.analyzer_us"] = timeIt(func() { deps.NewAnalyzer(orig) }) / 1e3

	// opt
	var sess *opt.Session
	m["opt.session_new_ms"] = timeIt(func() { sess, err = opt.NewSession(orig, pm, cfg) }) / 1e6
	if err != nil {
		return err
	}
	var res *opt.SearchResult
	var cold []float64
	for len(cold) < 3 && sum(cold) < 100e6 {
		fresh, err := opt.NewSession(orig, pm, cfg)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if res, err = fresh.Search(profs[0]); err != nil {
			return fmt.Errorf("replay: cold search: %w", err)
		}
		cold = append(cold, float64(time.Since(t0)))
	}
	m["opt.search_cold_ms"] = median(cold) / 1e6
	if _, err = sess.Search(profs[0]); err != nil {
		return err
	}
	m["opt.search_warm_us"] = timeIt(func() { _, err = sess.Search(profs[0]) }) / 1e3
	if err != nil {
		return err
	}
	var candidates, sizes []float64
	before = mallocs()
	for _, prof := range profs {
		r, err := sess.Search(prof)
		if err != nil {
			return fmt.Errorf("replay: warm search: %w", err)
		}
		candidates = append(candidates, float64(r.CandidatesEvaluated))
		sizes = append(sizes, float64(len(r.Plan)))
	}
	m["opt.allocs_per_search"] = float64(mallocs()-before) / float64(len(profs))
	m["opt.candidates_per_round"] = mean(candidates)
	if m["opt.plan_size_mean"] == 0 {
		m["opt.plan_size_mean"] = mean(sizes)
	}
	if len(res.Plan) > 0 {
		m["opt.apply_ms"] = timeIt(func() { _, err = opt.Apply(orig, res.Plan, cfg) }) / 1e6
		if err != nil {
			return fmt.Errorf("replay: apply: %w", err)
		}
	}

	// opt placement: replay only (README, exclusions)
	floored := orig.Clone()
	names := make([]string, 0, len(floored.Tables))
	for name := range floored.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for i := 0; i < len(names); i += 3 {
		floored.Tables[names[i]].MinTier = 1
	}
	base := opt.NewPlacement(floored, pm)
	var placed opt.Placement
	m["opt.placement_plan_ms"] = timeIt(func() { placed, err = opt.GreedyPlacementPlan(floored, profs[0], pm, base, 8) }) / 1e6
	if err != nil {
		return fmt.Errorf("replay: placement plan: %w", err)
	}
	m["opt.hetero_estimate_us"] = timeIt(func() { _, err = opt.EstimateHeteroLatency(floored, profs[0], pm, placed) }) / 1e3
	if err != nil {
		return fmt.Errorf("replay: hetero estimate: %w", err)
	}

	// analysis
	m["analysis.lint_ms"] = timeIt(func() { analysis.Lint(final, analysis.WithParams(pm)) }) / 1e6
	m["analysis.verify_rewrite_ms"] = timeIt(func() { analysis.VerifyRewrite(orig, final) }) / 1e6
	if w.deep {
		var sc *analysis.SemanticChecker
		m["analysis.checker_new_ms"] = timeIt(func() { sc = analysis.NewSemanticChecker(orig) }) / 1e6
		m["analysis.verify_semantics_ms"] = timeIt(func() { sc.Verify(final) }) / 1e6
		m["analysis.lint_deep_ms"] = timeIt(func() { analysis.LintDeep(final) }) / 1e6
		m["absint.analyze_ms"] = timeIt(func() { _, err = absint.Analyze(orig) }) / 1e6
		if err != nil {
			return fmt.Errorf("replay: absint: %w", err)
		}
	}

	// p4c, p4ir, synth
	if w.dash {
		src, err := os.ReadFile(dashSource)
		if err != nil {
			return err
		}
		m["p4c.compile_ms"] = timeIt(func() { _, err = p4c.Compile(string(src)) }) / 1e6
		if err != nil {
			return err
		}
	} else {
		m["synth.program_ms"] = timeIt(func() { synth.Program(w.synthSpec()) }) / 1e6
	}
	var js []byte
	m["p4ir.marshal_ms"] = timeIt(func() { js, err = orig.MarshalJSON() }) / 1e6
	if err != nil {
		return err
	}
	m["p4ir.program_json_bytes"] = float64(len(js))
	m["p4ir.load_ms"] = timeIt(func() { _, err = p4ir.Load(bytes.NewReader(js)) }) / 1e6
	if err != nil {
		return err
	}
	m["p4ir.clone_us"] = timeIt(func() { orig.Clone() }) / 1e3
	return nil
}
