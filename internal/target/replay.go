package target

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// Trace is a recorded session against a device: the capabilities it
// advertised and the responses it gave to Measure, Profile (window
// snapshots), and CacheStats calls, in call order. Deploys and entry
// operations are not recorded — their transactional semantics are pure
// state tracking, which a Replayer reproduces locally — so a trace stays
// small and survives program-layout changes made by the optimizer.
type Trace struct {
	// Name labels the trace (device + workload).
	Name string `json:"name"`
	// Capabilities is the recorded device description.
	Capabilities Capabilities `json:"capabilities"`
	// Program optionally embeds the original program the trace was
	// recorded against, so offline tools can replay without a second file.
	Program json.RawMessage `json:"program,omitempty"`
	// Measurements, Profiles, and CacheStats are FIFO response queues,
	// one entry per recorded call.
	Measurements []Measurement      `json:"measurements"`
	Profiles     []*profile.Profile `json:"profiles"`
	CacheStats   [][]CacheStats     `json:"cache_stats"`
}

// EmbedProgram stores prog in the trace.
func (tr *Trace) EmbedProgram(prog *p4ir.Program) error {
	data, err := prog.MarshalJSON()
	if err != nil {
		return err
	}
	tr.Program = data
	return nil
}

// EmbeddedProgram decodes the trace's embedded program (nil, nil when the
// trace has none).
func (tr *Trace) EmbeddedProgram() (*p4ir.Program, error) {
	if len(tr.Program) == 0 {
		return nil, nil
	}
	p := &p4ir.Program{}
	if err := p.UnmarshalJSON(tr.Program); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadTrace reads a trace from a JSON file.
func LoadTrace(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	tr := &Trace{}
	if err := json.Unmarshal(data, tr); err != nil {
		return nil, fmt.Errorf("target: parsing trace %s: %w", path, err)
	}
	if slices.Contains(tr.Profiles, nil) {
		return nil, fmt.Errorf("target: trace %s holds a null profile", path)
	}
	return tr, nil
}

// SaveFile writes the trace as indented JSON.
func (tr *Trace) SaveFile(path string) error {
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Recorder shadows another Target, recording every Measure / resetting
// Profile / CacheStats response into a Trace while passing all calls
// through — point the runtime at a Recorder over a Local (or Remote)
// backend to capture a golden trace for later hermetic replay.
type Recorder struct {
	Target

	mu    sync.Mutex
	trace *Trace
}

// NewRecorder wraps inner and starts an empty trace with the given name.
func NewRecorder(inner Target, name string) *Recorder {
	return &Recorder{
		Target: inner,
		trace:  &Trace{Name: name, Capabilities: inner.Capabilities()},
	}
}

// Trace returns the recording so far (shared, not a copy).
func (r *Recorder) Trace() *Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// Measure passes through and records the result.
func (r *Recorder) Measure(pkts []*packet.Packet) (Measurement, error) {
	m, err := r.Target.Measure(pkts)
	if err != nil {
		return m, err
	}
	r.mu.Lock()
	r.trace.Measurements = append(r.trace.Measurements, m)
	r.mu.Unlock()
	return m, nil
}

// Profile passes through; window-closing snapshots (reset=true) are
// recorded. Peeks (reset=false) are not — they are derived reads the
// replayer serves from the same queue.
func (r *Recorder) Profile(reset bool) (*profile.Profile, error) {
	p, err := r.Target.Profile(reset)
	if err != nil {
		return p, err
	}
	if reset {
		r.mu.Lock()
		r.trace.Profiles = append(r.trace.Profiles, p.Clone())
		r.mu.Unlock()
	}
	return p, nil
}

// CacheStats passes through and records the result.
func (r *Recorder) CacheStats() ([]CacheStats, error) {
	cs, err := r.Target.CacheStats()
	if err != nil {
		return cs, err
	}
	r.mu.Lock()
	r.trace.CacheStats = append(r.trace.CacheStats, append([]CacheStats(nil), cs...))
	r.mu.Unlock()
	return cs, nil
}

// Replayer serves a recorded Trace as a Target. Measurements, profile
// windows, and cache stats come from the trace's FIFO queues; deploys,
// rollbacks, and entry operations are tracked against an in-memory
// program copy with full transactional semantics, so the runtime loop
// behaves exactly as it did against the live device — deterministically,
// with no emulator in the process.
type Replayer struct {
	mu    sync.Mutex
	trace *Trace
	prog  *p4ir.Program

	checkpoint *p4ir.Program
	staged     bool

	nextMeasure int
	nextProfile int
	nextCaches  int
}

// NewReplayer replays trace against prog (the program the trace was
// recorded with; pass nil to use the trace's embedded program).
func NewReplayer(trace *Trace, prog *p4ir.Program) (*Replayer, error) {
	if prog == nil {
		var err error
		prog, err = trace.EmbeddedProgram()
		if err != nil {
			return nil, err
		}
		if prog == nil {
			return nil, fmt.Errorf("target: trace %q has no embedded program and none was supplied", trace.Name)
		}
	}
	return &Replayer{trace: trace, prog: prog.Clone()}, nil
}

// Program returns the replayer's tracked program.
func (r *Replayer) Program() *p4ir.Program {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prog
}

// Digest hashes the tracked program.
func (r *Replayer) Digest() (p4ir.Digest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prog.Digest(), nil
}

// Deploy stages prog, checkpointing the tracked program.
func (r *Replayer) Deploy(prog *p4ir.Program) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkpoint = r.prog
	r.prog = prog.Clone()
	r.staged = true
	return nil
}

// Commit finalizes the staged deploy.
func (r *Replayer) Commit() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.staged {
		return ErrNoCheckpoint
	}
	r.checkpoint = nil
	r.staged = false
	return nil
}

// Rollback restores the checkpointed program.
func (r *Replayer) Rollback() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.staged {
		return ErrNoCheckpoint
	}
	r.prog = r.checkpoint
	r.checkpoint = nil
	r.staged = false
	return nil
}

// Measure pops the next recorded measurement; the packets are ignored.
func (r *Replayer) Measure(pkts []*packet.Packet) (Measurement, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextMeasure >= len(r.trace.Measurements) {
		return Measurement{}, fmt.Errorf("%w: measurement %d of %d", ErrTraceExhausted, r.nextMeasure, len(r.trace.Measurements))
	}
	m := r.trace.Measurements[r.nextMeasure]
	r.nextMeasure++
	return m, nil
}

// Profile serves the next recorded window; reset=true advances the queue,
// reset=false peeks (matching the live snapshot-without-reset read). An
// exhausted queue yields empty windows, so a replayed loop can idle past
// the end of the trace the way a live loop idles on quiet traffic.
func (r *Replayer) Profile(reset bool) (*profile.Profile, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextProfile >= len(r.trace.Profiles) {
		return profile.New(), nil
	}
	p := r.trace.Profiles[r.nextProfile].Clone()
	if reset {
		r.nextProfile++
	}
	return p, nil
}

// CacheStats pops the next recorded snapshot (empty once exhausted).
func (r *Replayer) CacheStats() ([]CacheStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nextCaches >= len(r.trace.CacheStats) {
		return nil, nil
	}
	cs := r.trace.CacheStats[r.nextCaches]
	r.nextCaches++
	return append([]CacheStats(nil), cs...), nil
}

// InsertEntry applies the entry to the tracked program.
func (r *Replayer) InsertEntry(table string, e p4ir.Entry) error {
	return r.mutate(func(p *p4ir.Program) (func(), error) { return p.InsertEntry(table, e) })
}

// DeleteEntry removes the first matching entry from the tracked program.
func (r *Replayer) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return r.mutate(func(p *p4ir.Program) (func(), error) { return p.DeleteEntry(table, match) })
}

// ModifyEntry rewrites the first matching entry in the tracked program.
func (r *Replayer) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return r.mutate(func(p *p4ir.Program) (func(), error) { return p.ModifyEntry(table, match, action, args) })
}

func (r *Replayer) mutate(op func(*p4ir.Program) (func(), error)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := op(r.prog); err != nil {
		return fmt.Errorf("target: %w", err)
	}
	return nil
}

// Capabilities returns the recorded device description.
func (r *Replayer) Capabilities() Capabilities { return r.trace.Capabilities }

// Close is a no-op.
func (r *Replayer) Close() error { return nil }
