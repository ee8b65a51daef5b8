// Command fleetd is the Pipeleon fleet controller daemon: it supervises
// many SmartNIC device servers at once — remote nicds over the control
// plane, or an in-process simulated rack — probing their health on a
// background loop, quarantining flapping devices, and driving staged
// canary rollouts with automatic halt-and-rollback. It serves a small
// HTTP JSON API that `p4cctl fleet` talks to:
//
//	GET  /v1/status             aggregate fleet + per-device status
//	POST /v1/rollout            staged rollout of the posted program JSON
//	POST /v1/optimize           profile canaries, search each profile on its
//	                            warm session, roll layouts out per model
//	POST /v1/quarantine?device= force a device out of rotation
//	POST /v1/recover?device=    lift a quarantine (probation re-entry)
//	GET  /metrics               the same counters in Prometheus text format
//
// Usage:
//
//	fleetd -devices 10.0.0.1:9559,10.0.0.2:9559 [-listen 127.0.0.1:9560]
//	fleetd -sim 8 -program prog.json [-traffic 2000]
//	fleetd -scenario            run the scripted 8-device fault drill and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/fleet"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4c"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/target/remote"
	"pipeleon/internal/trafficgen"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9560", "fleet API listen address")
		devices  = flag.String("devices", "", "comma-separated nicd control-plane addresses")
		sim      = flag.Int("sim", 0, "run this many in-process emulated devices instead of dialing nicds")
		progPath = flag.String("program", "", "program JSON for -sim devices (required with -sim)")
		model    = flag.String("target", "bluefield2", "bluefield2|agiliocx|emulated (for -sim)")
		flows    = flag.Int("traffic", 2000, "flow population for -sim verification traffic")
		interval = flag.Duration("interval", 2*time.Second, "health-probe interval")
		scenario = flag.Bool("scenario", false, "run the scripted 8-device fault scenario and exit (non-zero on failure)")

		canary  = flag.Int("canary", 1, "rollout canary size")
		wave    = flag.Int("wave", 2, "first post-canary wave size (doubles per wave)")
		maxFail = flag.Float64("max-failure-frac", 0.25, "halt rollouts beyond this cumulative failure ratio")
		verify  = flag.Int("verify-packets", 256, "packets per rollout verification measurement (0 disables)")
		maxRegr = flag.Float64("max-regression", 0.2, "per-device rollback when verify latency regresses beyond this fraction")
		quiet   = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf("fleetd: "+format+"\n", args...)
		}
	}

	if *scenario {
		os.Exit(runScenario(logf))
	}

	pm, ok := costmodel.ByName(*model)
	if !ok {
		fatal("unknown target %q", *model)
	}

	ctl := fleet.New(fleet.Options{
		Policy:    fleet.DefaultHealthPolicy(),
		Optimizer: opt.DefaultConfig(),
		Logf:      logf,
	})

	var base *p4ir.Program
	var sampler func(n int) []*packet.Packet
	switch {
	case *sim > 0:
		if *progPath == "" {
			fatal("-sim needs -program")
		}
		var err error
		base, err = p4c.LoadFile(*progPath)
		if err != nil {
			fatal("%v", err)
		}
		gen := trafficgen.New(1, 0)
		gen.AddFlows(trafficgen.UniformFlows(2, *flows)...)
		sampler = lockedSampler(gen)
		for i := 0; i < *sim; i++ {
			name := fmt.Sprintf("sim%d", i)
			tgt, err := simDevice(base, pm)
			if err != nil {
				fatal("starting %s: %v", name, err)
			}
			if err := ctl.Add(name, tgt); err != nil {
				fatal("%v", err)
			}
		}
		logf("simulating %d %s devices", *sim, pm.Name)
	case *devices != "":
		for _, addr := range strings.Split(*devices, ",") {
			addr = strings.TrimSpace(addr)
			if addr == "" {
				continue
			}
			dev, err := remote.Dial(addr)
			if err != nil {
				fatal("dialing %s: %v", addr, err)
			}
			if err := ctl.Add(addr, dev); err != nil {
				fatal("%v", err)
			}
			logf("attached %s (%s)", addr, dev.Capabilities().Model)
		}
	default:
		fatal("need -devices or -sim (or -scenario)")
	}

	rcfg := fleet.RolloutConfig{
		Canary:         *canary,
		FirstWave:      *wave,
		MaxFailureFrac: *maxFail,
	}
	if *verify > 0 && sampler != nil {
		rcfg.Verify = fleet.VerifyConfig{Sampler: sampler, Packets: *verify, MaxRegression: *maxRegr}
	}

	stop := make(chan struct{})
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		ctl.Run(*interval, stop)
	}()

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, ctl.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = fleet.WriteMetrics(w, ctl.Status())
	})
	mux.HandleFunc("/v1/rollout", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST a program JSON")
			return
		}
		var prog p4ir.Program
		if err := json.NewDecoder(r.Body).Decode(&prog); err != nil {
			httpErr(w, http.StatusBadRequest, "decoding program: %v", err)
			return
		}
		rep, err := ctl.Rollout(&prog, rcfg)
		if err != nil {
			httpErr(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, rep)
	})
	mux.HandleFunc("/v1/optimize", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpErr(w, http.StatusMethodNotAllowed, "POST here")
			return
		}
		if base == nil {
			httpErr(w, http.StatusPreconditionFailed, "no base program (-sim mode only)")
			return
		}
		reports, err := ctl.OptimizeAndRollout(base, rcfg)
		if err != nil {
			httpErr(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, reports)
	})
	deviceAction := func(fn func(string) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				httpErr(w, http.StatusMethodNotAllowed, "POST here")
				return
			}
			name := r.URL.Query().Get("device")
			if name == "" {
				httpErr(w, http.StatusBadRequest, "missing ?device=")
				return
			}
			if err := fn(name); err != nil {
				httpErr(w, http.StatusNotFound, "%v", err)
				return
			}
			writeJSON(w, map[string]string{"device": name, "ok": "true"})
		}
	}
	mux.HandleFunc("/v1/quarantine", deviceAction(ctl.Quarantine))
	mux.HandleFunc("/v1/recover", deviceAction(ctl.Recover))

	srv := &http.Server{Addr: *listen, Handler: mux}
	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.ListenAndServe() }()
	logf("fleet API at http://%s (probe interval %s)", *listen, *interval)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case err := <-httpDone:
		fatal("http server: %v", err)
	}
	close(stop)
	<-loopDone
	srv.Close()
	fmt.Println("fleetd: bye")
}

// simDevice builds one in-process emulated device: a nicsim-backed Local
// target wrapped for fault injection (unscripted by default).
func simDevice(prog *p4ir.Program, pm costmodel.Params) (target.Target, error) {
	col := profile.NewCollector()
	nic, err := nicsim.New(prog.Clone(), nicsim.Config{Params: pm, Collector: col, Instrument: true})
	if err != nil {
		return nil, err
	}
	return fleet.WithFaults(target.NewLocal(nic, col), faultinject.NewScript()), nil
}

// lockedSampler serializes a generator: rollout stages measure devices
// concurrently.
func lockedSampler(gen *trafficgen.Generator) func(n int) []*packet.Packet {
	var mu sync.Mutex
	return func(n int) []*packet.Packet {
		mu.Lock()
		defer mu.Unlock()
		return gen.Batch(n)
	}
}

// runScenario assembles the scripted 8-device rack and runs the fleet
// acceptance drill (the same one `go test ./internal/fleet` pins):
// canary gate, mid-wave halt+rollback, breaker quarantine with graceful
// degradation, probation re-admission. Exit code 0 iff every phase's
// assertions held — `make fleet-sim` gates on it.
func runScenario(logf func(string, ...any)) int {
	progA, err := scenarioProgram("aclprog", []string{"t1", "t2", "acl1", "acl2"})
	if err == nil {
		var progB *p4ir.Program
		progB, err = scenarioProgram("aclprog.next", []string{"acl2", "acl1", "t1", "t2"})
		if err == nil {
			err = driveScenario(progA, progB, logf)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fleetd: scenario FAILED: %v\n", err)
		return 1
	}
	fmt.Println("fleetd: scenario passed")
	return 0
}

func driveScenario(progA, progB *p4ir.Program, logf func(string, ...any)) error {
	members := make([]fleet.FleetMember, 0, 8)
	for i := 0; i < 8; i++ {
		script := faultinject.NewScript()
		col := profile.NewCollector()
		nic, err := nicsim.New(progA.Clone(), nicsim.Config{
			Params: costmodel.BlueField2(), Collector: col, Instrument: true,
		})
		if err != nil {
			return err
		}
		members = append(members, fleet.FleetMember{
			Name:   fmt.Sprintf("sim%d", i),
			Target: fleet.WithFaults(target.NewLocal(nic, col), script),
			Script: script,
		})
	}
	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 2000, "tcp.dport", 23, 0.8)...)
	return fleet.RunFaultScenario(fleet.FaultScenarioInput{
		Devices: members,
		Next:    progB,
		Sampler: lockedSampler(gen),
		Logf:    logf,
	})
}

// scenarioProgram builds the drill pipeline: two plain tables and two
// ACLs, in the given order (the reordered variant is the rollout target).
func scenarioProgram(name string, order []string) (*p4ir.Program, error) {
	mk := func(name, field string) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.NewAction("set", p4ir.Prim("modify_field", "meta."+name, "1")), p4ir.NoopAction("pass")},
			DefaultAction: "pass",
		}
	}
	acl := func(name, field string, dropVal uint64) p4ir.TableSpec {
		return p4ir.TableSpec{
			Name:          name,
			Keys:          []p4ir.Key{{Field: field, Kind: p4ir.MatchExact, Width: packet.FieldWidth(field)}},
			Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
			DefaultAction: "allow",
			Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: dropVal}}, Action: "drop_packet"}},
		}
	}
	specs := map[string]p4ir.TableSpec{
		"t1":   mk("t1", "ipv4.dstAddr"),
		"t2":   mk("t2", "ipv4.srcAddr"),
		"acl1": acl("acl1", "tcp.sport", 1111),
		"acl2": acl("acl2", "tcp.dport", 23),
	}
	ordered := make([]p4ir.TableSpec, 0, len(order))
	for _, n := range order {
		ordered = append(ordered, specs[n])
	}
	return p4ir.ChainTables(name, ordered)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpErr(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "fleetd: "+format+"\n", args...)
	os.Exit(1)
}
