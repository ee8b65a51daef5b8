package controlplane

import (
	"testing"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// Device-op idempotency: Measure (and the other device RPCs) mutate device
// state — processed-packet counters, profiling windows, deploy checkpoints
// — so a client retry after an ambiguous failure must replay the recorded
// response, not re-run the operation.

func newDeviceServer(t *testing.T, opts ...ServerOption) (*Server, *target.Local) {
	t.Helper()
	dev, _ := newDevice(t)
	srv, err := NewServer("127.0.0.1:0", nil, nil, append(opts, WithDevice(dev))...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, dev
}

// newDevice builds the one-table emulated device and its collector.
func newDevice(t *testing.T) (*target.Local, *profile.Collector) {
	t.Helper()
	prog, err := p4ir.ChainTables("devprog", []p4ir.TableSpec{{
		Name:          "acl",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: packet.FieldWidth("tcp.dport")}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
		Entries:       []p4ir.Entry{{Match: []p4ir.MatchValue{{Value: 23}}, Action: "drop_packet"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	col := profile.NewCollector()
	nic, err := nicsim.New(prog, nicsim.Config{
		Params: costmodel.BlueField2(), Collector: col, Instrument: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return target.NewLocal(nic, col), col
}

// TestCountersReadTheFaultedDevice: a device-only server answers counters
// from its device before its collector, so a device wrapped with a Zero at
// PointCounters answers an empty window once, then the device's window.
func TestCountersReadTheFaultedDevice(t *testing.T) {
	dev, col := newDevice(t)
	script := faultinject.NewScript().Queue(faultinject.PointCounters, faultinject.Decision{Zero: true})
	srv, err := NewServer("127.0.0.1:0", nil, col, WithDevice(target.WithFaults(dev, script)))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.UniformFlows(2, 50)...)
	batch := gen.Batch(300)
	if _, err := dev.Measure(batch); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint64{0, uint64(len(batch))} {
		prof, err := cl.Counters()
		if err != nil {
			t.Fatal(err)
		}
		if got := prof.TableTotal("acl"); got != want {
			t.Errorf("read %d: %d acl hits, want %d", i+1, got, want)
		}
	}
	if script.Pending(faultinject.PointCounters) != 0 {
		t.Error("the zeroed-counters fault did not fire")
	}
}

func TestRetriedMeasureNotDuplicated(t *testing.T) {
	// The server measures the batch, then the connection dies before the
	// response reaches the client — the ambiguous failure. The retried
	// Measure carries the same idempotency key, so the server replays the
	// recorded measurement instead of processing the batch a second time
	// (which would double the device's profiling counters and skew the
	// next optimization window).
	script := faultinject.NewScript()
	srv, dev := newDeviceServer(t, WithFaultInjector(script))
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)
	script.Queue(faultinject.PointConnWrite, faultinject.Decision{Drop: true})

	gen := trafficgen.New(1, 0)
	gen.AddFlows(trafficgen.UniformFlows(2, 50)...)
	batch := gen.Batch(500)
	m, err := cl.Measure(batch)
	if err != nil {
		t.Fatalf("retried measure failed: %v", err)
	}
	if script.Pending(faultinject.PointConnWrite) != 0 {
		t.Fatal("connection-drop fault did not fire")
	}
	if m.Packets != len(batch) {
		t.Errorf("measured %d packets, want %d", m.Packets, len(batch))
	}
	// The device saw the batch exactly once: the profiling window credits
	// the table with one pass, not two.
	prof, err := dev.Profile(false)
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.TableTotal("acl"); got != uint64(len(batch)) {
		t.Errorf("device counted %d packets, want exactly %d (retry deduplicated)", got, len(batch))
	}
}

func TestRetriedDeployNotDuplicated(t *testing.T) {
	// A retried Deploy must not stage twice — a double-apply would
	// checkpoint the staged program itself, making Rollback restore the
	// wrong state.
	script := faultinject.NewScript()
	srv, dev := newDeviceServer(t, WithFaultInjector(script))
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fastRetry(cl)

	orig := dev.Program()
	next := orig.Clone()
	next.Name = "devprog-v2"
	script.Queue(faultinject.PointConnWrite, faultinject.Decision{Drop: true})
	if err := cl.Deploy(next); err != nil {
		t.Fatalf("retried deploy failed: %v", err)
	}
	if script.Pending(faultinject.PointConnWrite) != 0 {
		t.Fatal("connection-drop fault did not fire")
	}
	if err := cl.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	// The checkpoint must be the pre-deploy program, not the staged one.
	if got := dev.Program().Name; got != orig.Name {
		t.Errorf("after rollback, program = %q, want %q (deploy staged once)", got, orig.Name)
	}
}
