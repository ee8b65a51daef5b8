package controlplane

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"pipeleon/internal/faultinject"
	"pipeleon/internal/p4ir"
)

// Failure injection: the server must survive garbage frames, truncated
// writes, oversized headers, and abrupt disconnects without crashing or
// wedging other clients.

func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func assertServerAlive(t *testing.T, srv *Server) {
	t.Helper()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("server unreachable after fault: %v", err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatalf("server unhealthy after fault: %v", err)
	}
}

func TestServerSurvivesGarbageFrame(t *testing.T) {
	srv, _, _, _ := startServer(t)
	conn := rawDial(t, srv.Addr())
	// Valid length prefix, invalid JSON payload.
	payload := []byte("this is not json {{{{")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	conn.Write(hdr[:])
	conn.Write(payload)
	// The server drops this connection; others must still work.
	assertServerAlive(t, srv)
}

func TestServerSurvivesOversizedHeader(t *testing.T) {
	srv, _, _, _ := startServer(t)
	conn := rawDial(t, srv.Addr())
	conn.Write([]byte{0xff, 0xff, 0xff, 0xff}) // 4 GiB frame claim
	assertServerAlive(t, srv)
}

func TestServerSurvivesTruncatedFrame(t *testing.T) {
	srv, _, _, _ := startServer(t)
	conn := rawDial(t, srv.Addr())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1000)
	conn.Write(hdr[:])
	conn.Write([]byte("short")) // never send the rest
	conn.Close()
	assertServerAlive(t, srv)
}

func TestServerSurvivesImmediateDisconnect(t *testing.T) {
	srv, _, _, _ := startServer(t)
	for i := 0; i < 20; i++ {
		conn := rawDial(t, srv.Addr())
		conn.Close()
	}
	assertServerAlive(t, srv)
}

func TestClientTimeoutOnSilentServer(t *testing.T) {
	// A listener that accepts but never answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			// Swallow input, never reply.
		}
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.Timeout = 200 * time.Millisecond
	start := time.Now()
	err = cl.InsertEntry("t", p4ir.Entry{Action: "a"})
	if err == nil {
		t.Fatal("call against a silent server must fail")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, want ~200ms", elapsed)
	}
}

// fastRetry configures tight retry timings so failure tests stay quick.
func fastRetry(cl *Client) {
	cl.Timeout = 300 * time.Millisecond
	cl.Retry = RetryPolicy{MaxAttempts: 5, BaseBackoff: 10 * time.Millisecond}
	cl.maxBackoff, cl.maxElapsed = 100*time.Millisecond, 0
}

func TestClientSurvivesServerRestart(t *testing.T) {
	backend := newFakeBackend()
	srv1, err := NewServer("127.0.0.1:0", backend, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr()
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)

	e1 := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 1}}, Action: "drop_packet"}
	if err := cl.InsertEntry("acl", e1); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address, same backend.
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, err := NewServer(addr, backend, nil)
	if err != nil {
		t.Fatalf("restarting server on %s: %v", addr, err)
	}
	defer srv2.Close()

	// The same client session keeps working: the dead connection is
	// re-dialed transparently on the next call.
	e2 := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 2}}, Action: "drop_packet"}
	if err := cl.InsertEntry("acl", e2); err != nil {
		t.Fatalf("insert after restart: %v", err)
	}
	if got := len(backend.program().Tables["acl"].Entries); got != 2 {
		t.Errorf("entries after restart = %d, want 2 (no loss, no duplicates)", got)
	}
}

func TestRetriedInsertNotDuplicated(t *testing.T) {
	// The server applies the insert, then the connection dies before the
	// response — the ambiguous failure. The client's retry carries the
	// same idempotency key, so the server replays the recorded response
	// instead of inserting twice.
	script := faultinject.NewScript()
	backend := newFakeBackend()
	srv, err := NewServer("127.0.0.1:0", backend, nil, WithFaultInjector(script))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)
	script.Queue(faultinject.PointConnWrite, faultinject.Decision{Drop: true})

	e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 7}}, Action: "drop_packet"}
	if err := cl.InsertEntry("acl", e); err != nil {
		t.Fatalf("retried insert failed: %v", err)
	}
	if script.Pending(faultinject.PointConnWrite) != 0 {
		t.Fatal("connection-drop fault did not fire")
	}
	if got := len(backend.program().Tables["acl"].Entries); got != 1 {
		t.Errorf("entries = %d, want exactly 1 (retry deduplicated)", got)
	}
}

func TestClientRecoversFromStalledResponse(t *testing.T) {
	// The server stalls one response past the client's timeout; the
	// client retries on a fresh connection and the idempotency key
	// prevents double application.
	script := faultinject.NewScript()
	backend := newFakeBackend()
	srv, err := NewServer("127.0.0.1:0", backend, nil, WithFaultInjector(script))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)
	cl.Timeout = 100 * time.Millisecond
	script.Queue(faultinject.PointConnWrite, faultinject.Decision{Delay: 400 * time.Millisecond})

	e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 9}}, Action: "drop_packet"}
	if err := cl.InsertEntry("acl", e); err != nil {
		t.Fatalf("insert through stalled response failed: %v", err)
	}
	if got := len(backend.program().Tables["acl"].Entries); got != 1 {
		t.Errorf("entries = %d, want exactly 1", got)
	}
}

func TestDroppedConnectionMidSessionReconnects(t *testing.T) {
	script := faultinject.NewScript()
	backend := newFakeBackend()
	srv, err := NewServer("127.0.0.1:0", backend, nil, WithFaultInjector(script))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)
	// Drop the connection before the request is even handled.
	script.Queue(faultinject.PointConnRead, faultinject.Decision{Drop: true})

	if err := cl.Ping(); err != nil {
		t.Fatalf("ping through dropped connection failed: %v", err)
	}
	if script.Pending(faultinject.PointConnRead) != 0 {
		t.Fatal("connection-drop fault did not fire")
	}
}

func TestDialTimeoutBounded(t *testing.T) {
	// 203.0.113.1 (TEST-NET-3) blackholes, refuses, or is intercepted
	// depending on the host's routing; whatever happens, the dial must
	// return within the configured bound rather than blocking
	// indefinitely (the old Dial used net.Dial with no deadline).
	start := time.Now()
	cl, err := DialTimeout("203.0.113.1:9", 150*time.Millisecond)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("dial took %v, want bounded by ~150ms timeout", elapsed)
	}
	if err == nil {
		cl.Close() // some sandboxes intercept arbitrary dials
	}
}

func TestClientRejectsMismatchedResponseID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var req Request
		if _, err := readFrame(c, &req); err != nil {
			return
		}
		writeFrame(c, &Response{ID: req.ID + 99, OK: true}, nil)
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err == nil {
		t.Fatal("mismatched response id must be rejected")
	}
}
