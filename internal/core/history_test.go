package core

import (
	"testing"
	"time"
)

// The runtime keeps a bounded tail of round reports and a running tally of
// all of them: History returns the most recent historyCap rounds in order,
// Status still counts every round ever run.
func TestHistoryIsARingStatusCountsEveryRound(t *testing.T) {
	rt, nic, gen := newFaultRig(t, nil)
	total := historyCap + 40
	var deploys, skipped int
	for round := 1; round <= total; round++ {
		if round == 1 {
			// Traffic in the first window only: round 1 deploys a plan,
			// round 2 sees the profile drop to nothing, and every later
			// round is skipped as unchanged.
			drive(nic, gen, 3000)
		}
		rep, err := rt.OptimizeOnce(time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Deployed {
			deploys++
		}
		if rep.SkippedUnchanged {
			skipped++
		}
	}
	if deploys == 0 || skipped < historyCap {
		t.Fatalf("scenario drifted: %d deploys, %d skipped of %d rounds", deploys, skipped, total)
	}

	hist := rt.History()
	if len(hist) != historyCap {
		t.Fatalf("History holds %d reports, want the last %d", len(hist), historyCap)
	}
	for i, rep := range hist {
		if want := total - historyCap + 1 + i; rep.Round != want {
			t.Fatalf("History[%d] is round %d, want %d (oldest first)", i, rep.Round, want)
		}
		if rep.Deployed {
			t.Fatalf("History[%d] deployed; the deploys should have left the ring", i)
		}
	}
	// The deploys are in rounds the ring no longer holds; the tally has them.
	if st := rt.Status(); st.Round != total || st.Deploys != deploys || st.SkippedUnchanged != skipped {
		t.Errorf("status %+v, want %d rounds, %d deploys, %d skipped", st, total, deploys, skipped)
	}
}
