package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// span is one timed interval at a layer boundary. Spans of one window
// share its number; Parent is the span that caused this one (0 = none).
type span struct {
	Workload string `json:"workload"`
	Window   int    `json:"window"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// Packets is the batch size of a measure span.
	Packets int `json:"packets,omitempty"`
}

func (s span) ns() float64 { return float64(s.EndNs - s.StartNs) }

// tracer keeps the spans of one traced pass in memory. The driver
// goroutine opens and closes scopes (window, round, entry chunk); target
// calls made while a scope is open — from the driver, from the fleet's
// per-device rollout goroutines, or from a control-plane server goroutine
// — become its children.
type tracer struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	window   int
	scope    int
	spans    []span
	// harness is set while the benchmark makes calls of its own (reading
	// a window's profile for model_err_pct, closing a fleet device's
	// window). Their spans go to layer "bench", so the layer metrics
	// count only calls the system under test made.
	harness atomic.Bool
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent; parent < 0 means the current scope.
// packets is the batch size of a measure span, 0 otherwise.
func (t *tracer) begin(layer, name string, parent, packets int) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent < 0 {
		parent = t.scope
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		Workload: t.workload, Window: t.window, ID: id, Parent: parent,
		Layer: layer, Name: name, StartNs: now, Packets: packets,
	})
	return id
}

func (t *tracer) end(id int) {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// push opens a span and makes it the scope; pop closes it and restores
// the enclosing scope. Driver goroutine only. Both are no-ops on a nil
// tracer, so the untraced pass runs the same loop code.
func (t *tracer) push(layer, name string) int {
	if t == nil {
		return 0
	}
	id := t.begin(layer, name, -1, 0)
	t.mu.Lock()
	t.scope = id
	t.mu.Unlock()
	return id
}

func (t *tracer) pop(id int) {
	if t == nil {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.scope = t.spans[id-1].Parent
	t.mu.Unlock()
}

// bookkeeping marks the calls made until the returned func runs as the
// benchmark's own.
func (t *tracer) bookkeeping() func() {
	if t == nil {
		return func() {}
	}
	t.harness.Store(true)
	return func() { t.harness.Store(false) }
}

func (t *tracer) setWindow(w int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.window = w
	t.mu.Unlock()
}

// named returns the durations (ns) of every span with the given layer and
// name.
func (t *tracer) named(layer, name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.ns())
		}
	}
	return out
}

// covered returns, for every span, how much of its interval its direct
// children cover (the union of their intervals, since a rollout stage's
// devices run concurrently). Self time is duration minus this.
func (t *tracer) covered() []float64 {
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]float64, len(t.spans))
	for i, s := range t.spans {
		ks := kids[s.ID]
		sort.Slice(ks, func(a, b int) bool { return ks[a].StartNs < ks[b].StartNs })
		var sum, hi int64
		hi = s.StartNs
		for _, k := range ks {
			lo, end := k.StartNs, k.EndNs
			if lo < hi {
				lo = hi
			}
			if end > s.EndNs {
				end = s.EndNs
			}
			if end > lo {
				sum += end - lo
				hi = end
			}
		}
		out[i] = float64(sum)
	}
	return out
}

// check verifies the trace is well formed — every span closed, inside its
// parent, parents before children — and that the round spans account for
// the round wall time the driver measured with its own clock: self time
// plus child cover must reach 95 % of it.
func (t *tracer) check(driverRoundNs float64) error {
	for _, s := range t.spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("trace: span %d (%s/%s) never closed", s.ID, s.Layer, s.Name)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			return fmt.Errorf("trace: span %d names later span %d as its cause", s.ID, s.Parent)
		}
		p := t.spans[s.Parent-1]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("trace: span %d (%s/%s) leaves its parent %d (%s/%s)",
				s.ID, s.Layer, s.Name, p.ID, p.Layer, p.Name)
		}
	}
	cov := t.covered()
	var accounted float64
	for i, s := range t.spans {
		if s.Name != "round" {
			continue
		}
		self := s.ns() - cov[i]
		if self < 0 {
			return fmt.Errorf("trace: round span %d has negative self time", s.ID)
		}
		accounted += self + cov[i]
	}
	if driverRoundNs > 0 && accounted < 0.95*driverRoundNs {
		return fmt.Errorf("trace: round spans account for %.1f%% of round wall time, want >= 95%%",
			100*accounted/driverRoundNs)
	}
	return nil
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedTarget records a span around every call the loop makes into a
// device. On the client side of a control-plane connection it publishes
// the open span, and the decorator around the server-side Local of the
// same device parents its spans on it: one client keeps one call in
// flight, so the server-side span it caused is unambiguous.
type tracedTarget struct {
	target.Target
	tr      *tracer
	layer   string
	publish *atomic.Int64 // client side: the open span's id goes here
	cause   *atomic.Int64 // server side: the client-side span to parent on
}

func (t *tracedTarget) span(name string, packets int) func() {
	layer := t.layer
	if t.tr.harness.Load() {
		layer = "bench"
	}
	parent := -1
	if t.cause != nil {
		if p := int(t.cause.Load()); p != 0 {
			parent = p
		}
	}
	id := t.tr.begin(layer, name, parent, packets)
	if t.publish != nil {
		t.publish.Store(int64(id))
	}
	return func() {
		if t.publish != nil {
			t.publish.Store(0)
		}
		t.tr.end(id)
	}
}

func (t *tracedTarget) Program() *p4ir.Program {
	defer t.span("program", 0)()
	return t.Target.Program()
}

func (t *tracedTarget) Deploy(prog *p4ir.Program) error {
	defer t.span("deploy", 0)()
	return t.Target.Deploy(prog)
}

func (t *tracedTarget) Commit() error {
	defer t.span("commit", 0)()
	return t.Target.Commit()
}

func (t *tracedTarget) Rollback() error {
	defer t.span("rollback", 0)()
	return t.Target.Rollback()
}

func (t *tracedTarget) Measure(pkts []*packet.Packet) (target.Measurement, error) {
	defer t.span("measure", len(pkts))()
	return t.Target.Measure(pkts)
}

func (t *tracedTarget) Profile(reset bool) (*profile.Profile, error) {
	defer t.span("profile", 0)()
	return t.Target.Profile(reset)
}

func (t *tracedTarget) CacheStats() ([]target.CacheStats, error) {
	defer t.span("cachestats", 0)()
	return t.Target.CacheStats()
}

func (t *tracedTarget) InsertEntry(table string, e p4ir.Entry) error {
	defer t.span("insert", 0)()
	return t.Target.InsertEntry(table, e)
}

func (t *tracedTarget) DeleteEntry(table string, match []p4ir.MatchValue) error {
	defer t.span("delete", 0)()
	return t.Target.DeleteEntry(table, match)
}
