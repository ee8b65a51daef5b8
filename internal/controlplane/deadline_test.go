package controlplane

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"pipeleon/internal/faultinject"
)

// TestRetryDeadlineBoundsElapsedTime pins the satellite fix: a call's
// retry loop must stop at the client's maxElapsed even when MaxAttempts
// would allow many more tries — a hung or dead fleet device must not
// stall a rollout wave for MaxAttempts × timeout.
func TestRetryDeadlineBoundsElapsedTime(t *testing.T) {
	// A listener that is immediately closed: every dial gets refused, so
	// without a deadline the client would burn through all 100 attempts.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()

	cl, err := DialTimeout(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	ln.Close()
	cl.Timeout = time.Second
	cl.Retry = RetryPolicy{MaxAttempts: 100, BaseBackoff: 20 * time.Millisecond}
	cl.maxBackoff, cl.jitterFrac, cl.maxElapsed = 20*time.Millisecond, 0, 150*time.Millisecond

	start := time.Now()
	pingErr := cl.Ping()
	elapsed := time.Since(start)
	if pingErr == nil {
		t.Fatal("ping against a closed server succeeded")
	}
	if !strings.Contains(pingErr.Error(), "deadline exceeded") {
		t.Errorf("error does not mention the deadline: %v", pingErr)
	}
	// Generous upper bound: the cap is 150ms; even a slow CI box must
	// come in far under the ~2s that 100 refused dials with 20ms backoff
	// would take.
	if elapsed > time.Second {
		t.Errorf("call took %v, deadline cap of 150ms not enforced", elapsed)
	}
}

// TestRetryDeadlineClampsHungRoundTrip checks the cap also bounds a
// single in-flight round trip against a server that accepts but never
// answers (the hung-probe case): the connection deadline is clamped to
// the remaining budget, not the full per-attempt timeout.
func TestRetryDeadlineClampsHungRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow the request, never reply; hold the conn open until
			// the test ends.
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(conn)
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	cl, err := DialTimeout(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 10 * time.Second // per-attempt timeout far above the cap
	cl.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond}
	cl.jitterFrac, cl.maxElapsed = 0, 200*time.Millisecond

	start := time.Now()
	if err := cl.Ping(); err == nil {
		t.Fatal("ping against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung round trip took %v, cap of 200ms not applied to conn deadline", elapsed)
	}
}

// TestStatsServesStatusDocument checks WithStatus wires a status document
// through OpStats and that the client surfaces the raw JSON.
func TestStatsServesStatusDocument(t *testing.T) {
	want := map[string]int{"rolled_back": 3, "deploys": 7}
	srv, err := NewServer("127.0.0.1:0", nil, nil,
		WithStatus(func() ([]byte, error) { return json.Marshal(want) }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	raw, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]int
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got["rolled_back"] != 3 || got["deploys"] != 7 {
		t.Errorf("stats = %v, want %v", got, want)
	}
}

// TestRetryDeadlineStillRetriesWithinBudget makes sure the deadline does
// not break ordinary retry-and-recover behaviour: a server that drops the
// first response is retried and the idempotent call succeeds in budget.
func TestRetryDeadlineStillRetriesWithinBudget(t *testing.T) {
	script := faultinject.NewScript()
	script.Queue(faultinject.PointConnWrite, faultinject.Decision{Drop: true})
	srv, err := NewServer("127.0.0.1:0", nil, nil, WithFaultInjector(script))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Retry = RetryPolicy{MaxAttempts: 3, BaseBackoff: 10 * time.Millisecond}
	cl.jitterFrac, cl.maxElapsed = 0, 5*time.Second
	if err := cl.Ping(); err != nil {
		t.Fatalf("retry within budget failed: %v", err)
	}
	if script.Pending(faultinject.PointConnWrite) != 0 {
		t.Error("drop fault did not fire")
	}
}
