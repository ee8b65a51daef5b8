package fleet

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prometheus text exposition (version 0.0.4) for the fleet snapshot.
// Hand-rolled on purpose: the format is lines of `name{labels} value`
// plus # HELP / # TYPE headers, and a dependency-free writer keeps fleetd
// scrapable without pulling a client library into the build.

// promEscape escapes a label value per the exposition format: backslash,
// double quote, and newline.
var promEscape = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) header(name, help, typ string) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) value(name, labels string, v float64) {
	if p.err != nil {
		return
	}
	if labels != "" {
		labels = "{" + labels + "}"
	}
	// %g keeps integers integral ("3", not "3.000000") and large counters
	// exact well past any realistic uptime.
	_, p.err = fmt.Fprintf(p.w, "%s%s %g\n", name, labels, v)
}

func (p *promWriter) gauge(name, help string, v float64) {
	p.header(name, help, "gauge")
	p.value(name, "", v)
}

func (p *promWriter) counter(name, help string, v float64) {
	p.header(name, help, "counter")
	p.value(name, "", v)
}

func deviceLabel(name string) string {
	return `device="` + promEscape.Replace(name) + `"`
}

// WriteMetrics renders the snapshot in Prometheus text format. fleetd
// serves it at GET /metrics; any scraper pointed there gets the same
// counters /v1/status reports as JSON.
func WriteMetrics(w io.Writer, st Status) error {
	p := &promWriter{w: w}

	p.gauge("pipeleon_fleet_devices", "Devices registered with the fleet controller.", float64(len(st.Devices)))
	p.header("pipeleon_fleet_devices_by_state", "Devices per health state.", "gauge")
	p.value("pipeleon_fleet_devices_by_state", `state="healthy"`, float64(st.Healthy))
	p.value("pipeleon_fleet_devices_by_state", `state="degraded"`, float64(st.Degraded))
	p.value("pipeleon_fleet_devices_by_state", `state="quarantined"`, float64(st.Quarantined))
	p.value("pipeleon_fleet_devices_by_state", `state="recovering"`, float64(st.Recovering))
	p.gauge("pipeleon_fleet_serving", "Devices taking traffic (healthy + degraded).", float64(st.Serving))

	p.counter("pipeleon_fleet_rollouts_total", "Staged rollouts attempted.", float64(st.Rollouts))
	p.counter("pipeleon_fleet_rollouts_halted_total", "Rollouts halted by the failure-fraction gate.", float64(st.HaltedRollouts))
	p.counter("pipeleon_fleet_rollbacks_total", "Fleet-wide rollbacks.", float64(st.FleetRollbacks))

	p.gauge("pipeleon_optsearch_sessions", "Live warm optimizer sessions.", float64(st.OptSearch.Sessions))
	p.counter("pipeleon_optsearch_pool_hits_total", "Session-pool lookups that reused a warm session.", float64(st.OptSearch.PoolHits))
	p.counter("pipeleon_optsearch_pool_misses_total", "Session-pool lookups that built a session.", float64(st.OptSearch.PoolMisses))
	p.counter("pipeleon_optsearch_rounds_total", "Optimization searches served.", float64(st.OptSearch.Rounds))
	p.counter("pipeleon_optsearch_unit_memo_hits_total", "Pipelets priced on a candidate skeleton reused.", float64(st.OptSearch.UnitHits))
	p.counter("pipeleon_optsearch_unit_memo_misses_total", "Pipelets priced on a candidate skeleton built first.", float64(st.OptSearch.UnitMisses))
	p.counter("pipeleon_optsearch_verify_memo_hits_total", "Rewrite-verdict-memo hits.", float64(st.OptSearch.VerifyHits))
	p.counter("pipeleon_optsearch_verify_memo_misses_total", "Rewrite-verdict-memo misses.", float64(st.OptSearch.VerifyMisses))
	p.counter("pipeleon_optsearch_proof_memo_hits_total", "Semantic proofs answered from the program-digest memo.", float64(st.OptSearch.ProofMemoHits))
	p.counter("pipeleon_optsearch_proof_memo_misses_total", "Semantic proofs run.", float64(st.OptSearch.ProofMemoMisses))
	p.counter("pipeleon_optsearch_search_seconds_total", "Cumulative wall-clock search time.", float64(st.OptSearch.TotalSearchNs)/1e9)

	// Per-device series, sorted for a stable scrape (Status preserves
	// registration order; scrapes should not churn on it).
	devs := append([]DeviceStatus(nil), st.Devices...)
	sort.Slice(devs, func(i, j int) bool { return devs[i].Name < devs[j].Name })

	perDev := []struct {
		name, help string
		get        func(DeviceStatus) float64
	}{
		{"pipeleon_device_probes_total", "Health probes sent.", func(d DeviceStatus) float64 { return float64(d.Probes) }},
		{"pipeleon_device_probe_failures_total", "Health probes failed.", func(d DeviceStatus) float64 { return float64(d.ProbeFails) }},
		{"pipeleon_device_deploys_total", "Program deploys attempted.", func(d DeviceStatus) float64 { return float64(d.Deploys) }},
		{"pipeleon_device_deploy_failures_total", "Program deploys failed.", func(d DeviceStatus) float64 { return float64(d.DeployFails) }},
		{"pipeleon_device_commits_total", "Deploys committed.", func(d DeviceStatus) float64 { return float64(d.Commits) }},
		{"pipeleon_device_rollbacks_total", "Per-device rollbacks.", func(d DeviceStatus) float64 { return float64(d.RolledBack) }},
		{"pipeleon_device_quarantines_total", "Times the breaker quarantined the device.", func(d DeviceStatus) float64 { return float64(d.Quarantines) }},
		{"pipeleon_device_restarts_total", "Recovery restarts consumed.", func(d DeviceStatus) float64 { return float64(d.Restarts) }},
	}
	for _, m := range perDev {
		p.header(m.name, m.help, "counter")
		for _, d := range devs {
			p.value(m.name, deviceLabel(d.Name), m.get(d))
		}
	}
	p.header("pipeleon_device_up", "1 when the device is serving (healthy or degraded).", "gauge")
	for _, d := range devs {
		up := 0.0
		if d.State == Healthy.String() || d.State == Degraded.String() {
			up = 1
		}
		p.value("pipeleon_device_up", deviceLabel(d.Name), up)
	}
	return p.err
}
