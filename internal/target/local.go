package target

import (
	"sync"

	"pipeleon/internal/nicsim"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// Local is the in-process backend: it wraps the software SmartNIC
// emulator and its profiling collector. Packet processing stays on the
// emulator's fast path — Local adds synchronization only around the
// deploy checkpoint, which is control-plane state.
type Local struct {
	nic *nicsim.NIC
	col *profile.Collector
	cap Capabilities

	mu         sync.Mutex
	checkpoint *p4ir.Program // program running before the staged deploy
	staged     bool
}

// NewLocal wraps a NIC and its collector (the one the NIC's config was
// built with, so Profile sees the counters the data path records; nil
// disables profiling). Capabilities derive from the NIC's cost model.
func NewLocal(nic *nicsim.NIC, col *profile.Collector) *Local {
	return &Local{nic: nic, col: col, cap: CapabilitiesFor(nic.Params(), true)}
}

// SetCapabilities overrides the advertised capabilities (e.g. when the
// caller plans with a cost model other than the emulator's).
func (l *Local) SetCapabilities(c Capabilities) { l.cap = c }

// Program returns the currently running program.
func (l *Local) Program() *p4ir.Program { return l.nic.Program() }

// Digest returns the digest the emulator keeps of its running program.
func (l *Local) Digest() (p4ir.Digest, error) { return l.nic.ProgramDigest(), nil }

// Deploy swaps prog onto the emulator, checkpointing the running program.
func (l *Local) Deploy(prog *p4ir.Program) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := l.nic.Program()
	if err := l.nic.Swap(prog); err != nil {
		return err
	}
	l.checkpoint = prev
	l.staged = true
	return nil
}

// Commit finalizes the staged deploy.
func (l *Local) Commit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.staged {
		return ErrNoCheckpoint
	}
	l.checkpoint = nil
	l.staged = false
	return nil
}

// Rollback swaps the checkpointed program back onto the emulator.
func (l *Local) Rollback() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.staged {
		return ErrNoCheckpoint
	}
	if err := l.nic.Swap(l.checkpoint); err != nil {
		return err
	}
	l.checkpoint = nil
	l.staged = false
	return nil
}

// Measure is nicsim.NIC.Measure: the batch is walked in submission order
// on the caller's goroutine, and its noise and distinct-key inserts are
// finished beside the walk by a helper joined before Measure returns. The
// result, the profile and the packet counters are those of a serial
// per-packet run (deterministic per-batch results).
func (l *Local) Measure(pkts []*packet.Packet) (Measurement, error) {
	m := l.nic.Measure(pkts)
	return Measurement{
		Packets:            m.Packets,
		MeanLatencyNs:      m.MeanLatencyNs,
		P99LatencyNs:       m.P99LatencyNs,
		ThroughputGbps:     m.ThroughputGbps,
		DropRate:           m.DropRate,
		MeanMigrations:     m.MeanMigrations,
		VendorHitRate:      m.VendorHitRate,
		MeanCounterUpdates: m.MeanCounterUpdates,
	}, nil
}

// Profile snapshots the collector; reset closes the window.
func (l *Local) Profile(reset bool) (*profile.Profile, error) {
	if l.col == nil {
		return profile.New(), nil
	}
	if reset {
		return l.col.CloseWindow(), nil
	}
	return l.col.Snapshot(), nil
}

// CacheStats converts the emulator's per-cache counters.
func (l *Local) CacheStats() ([]CacheStats, error) {
	raw := l.nic.CacheStatsAll()
	out := make([]CacheStats, 0, len(raw))
	for _, s := range raw {
		out = append(out, CacheStats{
			Table: s.Table, Hits: s.Hits, Misses: s.Misses,
			Inserts: s.Inserts, Rejected: s.Rejected,
			Evictions: s.Evictions, Invalidations: s.Invalidations,
			Entries: s.Entries,
		})
	}
	return out, nil
}

// InsertEntry adds an entry to a deployed table.
func (l *Local) InsertEntry(table string, e p4ir.Entry) error {
	return l.nic.InsertEntry(table, e)
}

// DeleteEntry removes the first matching entry.
func (l *Local) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return l.nic.DeleteEntry(table, match)
}

// ModifyEntry rewrites the action of the first matching entry.
func (l *Local) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return l.nic.ModifyEntry(table, match, action, args)
}

// Capabilities describes the emulated device.
func (l *Local) Capabilities() Capabilities { return l.cap }

// Close is a no-op for the in-process backend.
func (l *Local) Close() error { return nil }
