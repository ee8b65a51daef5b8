package core

import (
	"path/filepath"
	"testing"
	"time"

	"pipeleon/internal/opt"
	"pipeleon/internal/target"
)

// Golden-trace round trips: the full runtime loop — windowed profiling,
// search, deploy, hit-rate feedback — runs against recorded device
// responses with no emulator in the process. The traces were captured by
// cmd/tracegen from synthesized programs on the BlueField-2 and Agilio CX
// cost models; regenerate with `make traces` after intentional changes to
// the optimizer or trace format.

func replayRoundTrip(t *testing.T, tracePath string) {
	t.Helper()
	trace, err := target.LoadTrace(filepath.Join("..", "..", "testdata", "traces", tracePath))
	if err != nil {
		t.Fatal(err)
	}
	rp, err := target.NewReplayer(trace, nil) // program embedded in the trace
	if err != nil {
		t.Fatal(err)
	}
	prog := rp.Program().Clone()

	cfg := opt.DefaultConfig()
	rt, err := NewRuntime(prog, rp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.pm.Name; got != trace.Capabilities.Model {
		t.Errorf("runtime planned with %q, trace recorded %q", got, trace.Capabilities.Model)
	}

	rounds := len(trace.Profiles)
	for i := 0; i < rounds; i++ {
		if _, err := rt.OptimizeOnce(time.Second); err != nil {
			t.Fatalf("round %d: %v", i+1, err)
		}
	}
	hist := rt.History()
	if len(hist) != rounds {
		t.Fatalf("history has %d rounds, want %d", len(hist), rounds)
	}
	// The recorded sessions found a profitable plan in round 1.
	if !hist[0].Deployed || hist[0].Gain <= 0 {
		t.Errorf("round 1 should deploy a profitable plan: %+v", hist[0])
	}
	if currentOf(rt).Digest() == rt.Original().Digest() {
		t.Error("replayed loop never changed the layout")
	}
	// All recorded windows were consumed: no recorded window is empty, and
	// a peek past the last one serves the empty window.
	for i, p := range trace.Profiles {
		if len(p.ActionCounts) == 0 {
			t.Fatalf("recorded profile window %d is empty", i)
		}
	}
	if p, err := rp.Profile(false); err != nil || len(p.ActionCounts) != 0 {
		t.Errorf("recorded profile windows left unconsumed (err %v)", err)
	}
}

func TestReplayRoundTripBlueField2(t *testing.T) { replayRoundTrip(t, "bluefield2.json") }

func TestReplayRoundTripAgilioCX(t *testing.T) { replayRoundTrip(t, "agiliocx.json") }
