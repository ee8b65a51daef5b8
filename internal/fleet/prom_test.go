package fleet

import (
	"fmt"
	"strings"
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/target"
)

func TestWriteMetricsRendersStatus(t *testing.T) {
	st := Status{
		Devices: []DeviceStatus{
			{Name: "sim1", State: Quarantined.String(), Probes: 9, ProbeFails: 4, Quarantines: 1},
			{Name: "sim0", State: Healthy.String(), Probes: 10, Deploys: 3, Commits: 2, RolledBack: 1},
		},
		Healthy: 1, Quarantined: 1, Serving: 1,
		Rollouts: 5, HaltedRollouts: 1, FleetRollbacks: 2,
		OptSearch: SearchSessionStats{Sessions: 2, Rounds: 4, UnitHits: 11, TotalSearchNs: 2.5e9},
	}
	var sb strings.Builder
	if err := WriteMetrics(&sb, st); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	out := sb.String()

	for _, want := range []string{
		"# HELP pipeleon_fleet_devices ",
		"# TYPE pipeleon_fleet_devices gauge",
		"pipeleon_fleet_devices 2\n",
		`pipeleon_fleet_devices_by_state{state="healthy"} 1`,
		`pipeleon_fleet_devices_by_state{state="quarantined"} 1`,
		"pipeleon_fleet_serving 1\n",
		"# TYPE pipeleon_fleet_rollouts_total counter",
		"pipeleon_fleet_rollouts_total 5",
		"pipeleon_fleet_rollouts_halted_total 1",
		"pipeleon_fleet_rollbacks_total 2",
		"pipeleon_optsearch_rounds_total 4",
		"pipeleon_optsearch_unit_memo_hits_total 11",
		"pipeleon_optsearch_search_seconds_total 2.5",
		`pipeleon_device_probes_total{device="sim0"} 10`,
		`pipeleon_device_probes_total{device="sim1"} 9`,
		`pipeleon_device_probe_failures_total{device="sim1"} 4`,
		`pipeleon_device_rollbacks_total{device="sim0"} 1`,
		`pipeleon_device_up{device="sim0"} 1`,
		`pipeleon_device_up{device="sim1"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Devices render sorted by name regardless of snapshot order.
	if i, j := strings.Index(out, `device="sim0"`), strings.Index(out, `device="sim1"`); i < 0 || j < 0 || i > j {
		t.Errorf("per-device series not sorted (sim0 at %d, sim1 at %d)", i, j)
	}

	// Every non-comment line is `name value` or `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, " ") != 1 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestWriteMetricsEscapesLabels(t *testing.T) {
	st := Status{Devices: []DeviceStatus{{Name: `rack"7\a`, State: Healthy.String()}}}
	var sb strings.Builder
	if err := WriteMetrics(&sb, st); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	if !strings.Contains(sb.String(), `device="rack\"7\\a"`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

// The live path: a controller snapshot must render without error and carry
// the registered devices.
func TestWriteMetricsFromController(t *testing.T) {
	prog, err := p4ir.ChainTables("m", []p4ir.TableSpec{{
		Name:          "t1",
		Keys:          []p4ir.Key{{Field: "ipv4.dstAddr", Kind: p4ir.MatchExact, Width: packet.FieldWidth("ipv4.dstAddr")}},
		Actions:       []*p4ir.Action{p4ir.NoopAction("pass")},
		DefaultAction: "pass",
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(Options{})
	for i := 0; i < 3; i++ {
		nic, err := nicsim.New(prog.Clone(), nicsim.Config{Params: costmodel.EmulatedNIC()})
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Add(fmt.Sprintf("sim%d", i), target.NewLocal(nic, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	if err := WriteMetrics(&sb, ctl.Status()); err != nil {
		t.Fatalf("WriteMetrics: %v", err)
	}
	for _, want := range []string{
		"pipeleon_fleet_devices 3",
		`pipeleon_device_up{device="sim2"} 1`,
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("controller metrics missing %q", want)
		}
	}
}
