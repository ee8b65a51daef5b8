// Command fleetd is the Pipeleon fleet controller daemon: it supervises
// many SmartNIC device servers at once — remote nicds over the control
// plane, or an in-process simulated rack — probing their health on a
// background loop, quarantining flapping devices, and driving staged
// canary rollouts with automatic halt-and-rollback. It serves a small
// HTTP JSON API that `p4cctl fleet` talks to:
//
//	GET  /v1/status             aggregate fleet + per-device status
//	POST /v1/rollout            staged rollout of the posted program JSON
//	POST /v1/optimize           run each model canary's core.Runtime round,
//	                            roll the layout it runs out per model
//	POST /v1/quarantine?device= force a device out of rotation
//	POST /v1/recover?device=    lift a quarantine (probation re-entry)
//	GET  /metrics               the same counters in Prometheus text format
//
// Usage:
//
//	fleetd -devices 10.0.0.1:9559,10.0.0.2:9559 [-listen 127.0.0.1:9560]
//	fleetd -sim 8 -program prog.json [-traffic 2000]
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

	pm, ok := costmodel.ByName(*model)
	if !ok {
		fatal("unknown target %q", *model)
	}

	ctl := fleet.New(fleet.Options{
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
		fatal("need -devices or -sim")
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
// target.
func simDevice(prog *p4ir.Program, pm costmodel.Params) (target.Target, error) {
	col := profile.NewCollector()
	nic, err := nicsim.New(prog.Clone(), nicsim.Config{Params: pm, Collector: col, Instrument: true})
	if err != nil {
		return nil, err
	}
	return target.NewLocal(nic, col), nil
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
