// Command nicd runs a software SmartNIC: it loads a P4 program JSON into
// the emulator, starts the Pipeleon runtime loop (windowed profiling +
// re-optimization + hot swap), and serves the program-management API over
// TCP for p4cctl. With -traffic it also self-generates a packet workload
// so the profile-guided loop has something to observe — a single-binary
// "rack demo" of the paper's Figure 3 workflow.
//
// Usage:
//
//	nicd -program prog.json [-target bluefield2] [-listen 127.0.0.1:9559]
//	     [-interval 5s] [-traffic 1000] [-skew 0.9] [-pps 50000]
//	     [-duration 30s] [-quiet]
//	     [-verify-packets 256] [-max-regression 0.1] [-min-realized-gain 0.2]
//	     [-blacklist-rounds 3] [-breaker-threshold 3] [-breaker-cooldown 5]
//	     [-fault "deploy.fail=0.1,conn.write.drop=0.05"] [-fault-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/core"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/opt"
	"pipeleon/internal/p4c"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

func main() {
	var (
		progPath = flag.String("program", "", "P4 program: JSON or .p4 source (required)")
		model    = flag.String("target", "bluefield2", "bluefield2|agiliocx|emulated")
		listen   = flag.String("listen", "127.0.0.1:9559", "control-plane listen address")
		devOnly  = flag.Bool("device-only", false, "serve only the device API (no on-box optimizer); a remote Pipeleon runtime drives this nicd over the control plane")
		interval = flag.Duration("interval", 5*time.Second, "optimization window")
		flows    = flag.Int("traffic", 0, "self-generate a workload with this many flows (0 = none)")
		skew     = flag.Float64("skew", 0.9, "traffic Zipf skew")
		pps      = flag.Int("pps", 20000, "self-generated packets per second")
		duration = flag.Duration("duration", 0, "exit after this long (0 = run until signal)")
		quiet    = flag.Bool("quiet", false, "suppress per-window stats")
		profOut  = flag.String("profile-out", "", "on exit, dump the last window's translated profile JSON here (usable with pipeleon -profile)")

		verifyPkts    = flag.Int("verify-packets", 256, "packets replayed in the post-deploy verification window (0 disables verify-and-rollback; needs -traffic)")
		maxRegress    = flag.Float64("max-regression", 0.1, "rollback when post-deploy mean latency regresses by more than this fraction")
		minRealized   = flag.Float64("min-realized-gain", 0.2, "rollback when measured improvement is below this fraction of the predicted gain (0 disables)")
		blacklistRnds = flag.Int("blacklist-rounds", 3, "rounds a rolled-back plan is barred from redeployment")
		breakerThresh = flag.Int("breaker-threshold", 3, "consecutive failed/rolled-back deploys that open the redeploy circuit breaker")
		breakerCool   = flag.Int("breaker-cooldown", 5, "rounds the circuit breaker pauses redeployment")
		faultSpec     = flag.String("fault", "", "fault-injection spec, e.g. 'deploy.fail=0.1,conn.write.drop=0.05,plan.scale=0.1:20' (empty = none)")
		faultSeed     = flag.Uint64("fault-seed", 1, "seed for the probabilistic fault injector")
	)
	flag.Parse()
	if *progPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	prog, err := p4c.LoadFile(*progPath)
	if err != nil {
		fatal("%v", err)
	}
	pm, ok := costmodel.ByName(*model)
	if !ok {
		fatal("unknown target %q", *model)
	}

	faults, err := faultinject.ParseSpec(*faultSpec, *faultSeed)
	if err != nil {
		fatal("%v", err)
	}

	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: pm, Collector: col, Instrument: true, CacheFillCostNs: 500,
	})
	if err != nil {
		fatal("starting emulator: %v", err)
	}
	dev := target.WithFaults(target.NewLocal(nic, col), faults)

	var rt *core.Runtime
	if !*devOnly {
		rt, err = core.NewRuntime(prog, dev, opt.DefaultConfig())
		if err != nil {
			fatal("starting runtime: %v", err)
		}
		rt.SetFaultInjector(faults)
	}

	var gen *trafficgen.Generator
	if *flows > 0 {
		gen = trafficgen.New(1, 0)
		gen.AddFlows(trafficgen.UniformFlows(2, *flows)...)
		gen.SetSkew(*skew)
	}
	if rt != nil && gen != nil && *verifyPkts > 0 {
		// The guard samples concurrently with the traffic goroutine, so it
		// takes its own Split child over the same flow population.
		vgen := gen.Split(1)[0]
		guard := core.DefaultDeployGuard(vgen.Batch)
		guard.VerifyPackets = *verifyPkts
		guard.MaxRegression = *maxRegress
		guard.MinRealizedGainFrac = *minRealized
		guard.BlacklistRounds = *blacklistRnds
		guard.BreakerThreshold = *breakerThresh
		guard.BreakerCooldownRounds = *breakerCool
		rt.SetDeployGuard(guard)
	}

	srvOpts := []controlplane.ServerOption{controlplane.WithDevice(dev)}
	if faults != nil {
		srvOpts = append(srvOpts, controlplane.WithFaultInjector(faults))
	}
	// The status document reads the server's wire counters, and the server
	// takes the document's source as an option: the pointer closes the loop
	// for a request that arrives before NewServer has returned.
	var serving atomic.Pointer[controlplane.Server]
	if rt != nil {
		// Serve the runtime's aggregated counters (deploys, rollbacks,
		// breaker state) on the stats op, so fleetd and `p4cctl stats` get
		// a machine-readable health document instead of a bare ack — with
		// the wire counters the server's own default document carries.
		srvOpts = append(srvOpts, controlplane.WithStatus(func() ([]byte, error) {
			doc := struct {
				core.RuntimeStatus
				Wire controlplane.WireStats `json:"wire"`
			}{RuntimeStatus: rt.Status()}
			if srv := serving.Load(); srv != nil {
				doc.Wire = srv.WireStats()
			}
			return json.Marshal(doc)
		}))
	}
	var backend controlplane.Backend
	if rt != nil {
		backend = rt
	}
	srv, err := controlplane.NewServer(*listen, backend, col, srvOpts...)
	if err != nil {
		fatal("starting control plane: %v", err)
	}
	defer srv.Close()
	serving.Store(srv)
	mode := "optimizer"
	if *devOnly {
		mode = "device-only"
	}
	fmt.Printf("nicd: %s on %s model (%s), control plane at %s\n", prog.Name, pm.Name, mode, srv.Addr())

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(*interval)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				if gen != nil {
					n := int(float64(*pps) * interval.Seconds())
					m := nic.Measure(gen.Batch(n))
					if !*quiet {
						fmt.Printf("nicd: window %.1f Gbps, %.0f ns mean, drop %.1f%%\n",
							m.ThroughputGbps, m.MeanLatencyNs, m.DropRate*100)
					}
				}
				if rt == nil {
					continue // device-only: the remote runtime drives optimization
				}
				rep, err := rt.OptimizeOnce(*interval)
				if err != nil {
					fmt.Fprintf(os.Stderr, "nicd: optimize (round %d): %v\n", rep.Round, err)
					continue
				}
				if *quiet {
					continue
				}
				switch {
				case rep.RolledBack:
					fmt.Printf("nicd: round %d rolled back (verify delta %+.1f%%, predicted gain %.0f ns): %v\n",
						rep.Round, rep.VerifyDelta*100, rep.Gain, rep.Plan)
				case rep.BreakerOpen:
					fmt.Printf("nicd: round %d: redeploy circuit breaker open\n", rep.Round)
				case rep.PlanBlacklisted:
					fmt.Printf("nicd: round %d: plan blacklisted after rollback, holding layout\n", rep.Round)
				case rep.Deployed:
					fmt.Printf("nicd: deployed new layout (round %d, gain %.0f ns, verify delta %+.1f%%): %v\n",
						rep.Round, rep.Gain, rep.VerifyDelta*100, rep.Plan)
				}
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if *duration > 0 {
		select {
		case <-sig:
		case <-time.After(*duration):
		}
	} else {
		<-sig
	}
	close(stop)
	<-done
	if *profOut != "" && rt != nil {
		prof := rt.TranslatedCounters()
		data, err := json.MarshalIndent(prof, "", "  ")
		if err == nil {
			err = os.WriteFile(*profOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "nicd: writing profile: %v\n", err)
		} else {
			fmt.Printf("nicd: wrote profile to %s\n", *profOut)
		}
	}
	fmt.Println("nicd: bye")
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "nicd: "+format+"\n", args...)
	os.Exit(1)
}
