package remote

import (
	"io"
	"net"
	"sync/atomic"
	"testing"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/costmodel"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/synth"
	"pipeleon/internal/target"
)

// countingConn counts the bytes read from the connection it wraps.
type countingConn struct {
	net.Conn
	read *atomic.Int64
}

func (c countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read.Add(int64(n))
	return n, err
}

// relay forwards one accepted connection to addr and counts what the far
// end sends back.
func relay(t *testing.T, addr string, fromServer *atomic.Int64) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		down, err := ln.Accept()
		if err != nil {
			return
		}
		defer down.Close()
		up, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer up.Close()
		go func() {
			io.Copy(up, down)
			up.Close()
		}()
		io.Copy(down, countingConn{Conn: up, read: fromServer})
	}()
	return ln.Addr().String()
}

// TestUnchangedProgramCrossesOnce counts bytes on the wire: however often
// Program() is asked, an unchanged program's body moves once, and it moves
// again exactly when the device's program changed.
func TestUnchangedProgramCrossesOnce(t *testing.T) {
	prog := synth.Program(synth.ProgramSpec{Pipelets: 12, AvgLen: 3, Category: synth.Mixed, Seed: 3})
	nic, err := nicsim.New(prog, nicsim.Config{Params: costmodel.BlueField2()})
	if err != nil {
		t.Fatal(err)
	}
	dev := target.NewLocal(nic, nil)
	srv, err := controlplane.NewServer("127.0.0.1:0", nil, nil, controlplane.WithDevice(dev))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var fromServer atomic.Int64
	r, err := Dial(relay(t, srv.Addr(), &fromServer))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	body := int64(len(prog.AppendBinary(nil)))
	if body < 4<<10 {
		t.Fatalf("program encodes to %d bytes: too small to tell a body from a header", body)
	}
	const fetches = 20
	const header = 200 // generous for one body-less response frame

	start := fromServer.Load()
	first := r.Program()
	for i := 1; i < fetches; i++ {
		if got := r.Program(); got != first {
			t.Fatalf("fetch %d of an unchanged program returned another program", i)
		}
	}
	if moved := fromServer.Load() - start; moved < body || moved > body+fetches*header {
		t.Fatalf("%d fetches of an unchanged %d-byte program moved %d bytes, want one body", fetches, body, moved)
	}
	if ws := srv.WireStats(); ws.ProgramsSent != 1 || ws.ProgramsUnchanged != fetches-1 {
		t.Fatalf("server counted %d bodies and %d unchanged answers, want 1 and %d", ws.ProgramsSent, ws.ProgramsUnchanged, fetches-1)
	}

	// The device's program changes behind the remote's back: the next fetch
	// carries a body, the ones after it do not.
	var table string
	for name, tbl := range prog.Tables {
		if len(tbl.Entries) > 0 {
			table = name
			break
		}
	}
	e := dev.Program().Tables[table].Entries[0]
	if err := dev.DeleteEntry(table, e.Match); err != nil {
		t.Fatal(err)
	}
	start = fromServer.Load()
	for i := 0; i < fetches; i++ {
		got := r.Program()
		if got == first || got.Digest() != dev.Program().Digest() {
			t.Fatalf("fetch %d after an entry delete: not the device's program", i)
		}
	}
	if moved := fromServer.Load() - start; moved < body/2 || moved > body+fetches*header {
		t.Fatalf("%d fetches after one change moved %d bytes, want one body of about %d", fetches, moved, body)
	}

	// A deploy through this remote leaves nothing to fetch.
	next := dev.Program().Clone()
	next.Name = "next"
	if err := r.Deploy(next); err != nil {
		t.Fatal(err)
	}
	start = fromServer.Load()
	if got := r.Program(); got == next || got.Digest() != next.Digest() {
		t.Fatal("after a deploy, Program() must be a private copy of what was deployed")
	}
	if moved := fromServer.Load() - start; moved > header {
		t.Fatalf("fetching the program this remote just deployed moved %d bytes", moved)
	}
	if ws := srv.WireStats(); ws.BodyBytesOut < uint64(body) || ws.BodyBytesIn == 0 {
		t.Fatalf("body byte counters did not move: %+v", ws)
	}
}
