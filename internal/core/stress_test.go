package core

import (
	"sync"
	"testing"
	"time"

	"pipeleon/internal/opt"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/trafficgen"
)

// Concurrency stress: traffic processing, control-plane entry churn, and
// optimization rounds all run simultaneously — the real deployment shape.
// Run with -race in CI (the suite is race-clean).
func TestRuntimeConcurrentStress(t *testing.T) {
	prog := aclProgram(t)
	cfg := opt.DefaultConfig()
	cfg.TopKFrac = 1
	cfg.ProfileChangeThreshold = 0 // search every round: maximum churn
	rt, nic, _ := newRig(t, prog, cfg)

	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.DropTargetedFlows(2, 1000, "tcp.dport", 23, 0.5)...)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Traffic workers.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := trafficgen.New(uint64(w)+7, 0)
			g.AddFlows(trafficgen.UniformFlows(uint64(w)+8, 200)...)
			for {
				select {
				case <-stop:
					return
				default:
					nic.Measure(g.Batch(200))
				}
			}
		}(w)
	}
	// Entry churn through the API mapping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v := uint64(0x2000)
		for {
			select {
			case <-stop:
				return
			default:
				// Stay within the 16-bit sport key width; p4ir's rule
				// refuses an oversized value (P4S06).
				v = 0x2000 + (v+1)&0x0fff
				e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: v}}, Action: "drop_packet"}
				if err := rt.InsertEntry("acl1", e); err != nil {
					t.Error(err)
					return
				}
				if err := rt.DeleteEntry("acl1", e.Match); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	// Optimization rounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			select {
			case <-stop:
				return
			default:
				if _, err := rt.OptimizeOnce(50 * time.Millisecond); err != nil {
					t.Error(err)
					return
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
	}()
	// Counter reads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = rt.TranslatedCounters()
				_ = rt.Current()
				_ = rt.Status() // reads the session's counters while a round may be searching
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	time.Sleep(600 * time.Millisecond)
	close(stop)
	wg.Wait()

	// The system must still be coherent: the deployed program validates
	// and processes packets.
	if err := rt.Current().Validate(); err != nil {
		t.Fatalf("deployed program invalid after stress: %v", err)
	}
	m := nic.Measure(gen.Batch(500))
	if m.Packets != 500 {
		t.Fatalf("post-stress processing broken: %+v", m)
	}
}
