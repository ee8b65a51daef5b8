// Package target abstracts the device under optimization behind one
// interface, so the Pipeleon runtime loop (internal/core) can drive an
// in-process emulator, a remote nicd over the control-plane protocol, or
// a recorded trace interchangeably — the multi-backend seam the
// profile-guided loop needs to run against heterogeneous SmartNICs.
//
// Three implementations ship with the repo:
//
//   - Local wraps a *nicsim.NIC and its profile collector (this package),
//     preserving the emulator's lock-free fast path.
//   - Remote (package target/remote) drives a nicd device server over the
//     extended control-plane protocol, so the optimizer can live off-box.
//   - Replayer (this package) replays Measure/Profile/CacheStats responses
//     from a recorded JSON trace deterministically — offline tuning and
//     hermetic tests without an emulator. Recorder produces such traces by
//     shadowing any other Target.
//
// Deploys are transactional, matching the runtime's verify-and-rollback
// semantics: Deploy stages a program while checkpointing the running one,
// Commit discards the checkpoint, Rollback restores it. A conformance
// suite (conformance_test.go) pins these semantics across all backends.
package target

import (
	"errors"

	"pipeleon/internal/costmodel"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
)

// ErrNoCheckpoint is returned by Commit/Rollback when no deploy is staged.
var ErrNoCheckpoint = errors.New("target: no staged deploy to commit or roll back")

// ErrTraceExhausted is returned by a Replayer once a recorded response
// queue runs dry.
var ErrTraceExhausted = errors.New("target: replay trace exhausted")

// Measurement aggregates a processed batch into the quantities the
// runtime's verification windows and the evaluation plots consume. It
// mirrors the emulator's measurement but is backend-neutral and
// JSON-stable so it can cross the control-plane wire and live in replay
// traces.
type Measurement struct {
	Packets            int     `json:"packets"`
	MeanLatencyNs      float64 `json:"mean_latency_ns"`
	P99LatencyNs       float64 `json:"p99_latency_ns"`
	ThroughputGbps     float64 `json:"throughput_gbps"`
	DropRate           float64 `json:"drop_rate"`
	MeanMigrations     float64 `json:"mean_migrations"`
	VendorHitRate      float64 `json:"vendor_hit_rate"`
	MeanCounterUpdates float64 `json:"mean_counter_updates"`
}

// CacheStats is a backend-neutral snapshot of one runtime cache's
// counters, used for the hit-rate feedback loop.
type CacheStats struct {
	Table         string `json:"table"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Inserts       uint64 `json:"inserts"`
	Rejected      uint64 `json:"rejected"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
}

// HitRate returns hits/(hits+misses) and whether any lookups happened.
func (s CacheStats) HitRate() (float64, bool) {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0, false
	}
	return float64(s.Hits) / float64(total), true
}

// Capabilities describes what the device behind a Target can do: its cost
// model (which also carries core count and line rate), and whether it
// supports runtime flow caches.
type Capabilities struct {
	// Model names the device model (Params.Name for the built-in models).
	Model string `json:"model"`
	// Params is the §3.1 cost model the optimizer should plan with.
	Params costmodel.Params `json:"params"`
	// Cores is the number of run-to-completion cores (= Params.Cores).
	Cores int `json:"cores"`
	// LineRateGbps caps achievable throughput (= Params.LineRateGbps).
	LineRateGbps float64 `json:"line_rate_gbps"`
	// CacheSupport reports whether deployed programs may contain runtime
	// flow-cache tables.
	CacheSupport bool `json:"cache_support"`
}

// CapabilitiesFor derives Capabilities from a cost model.
func CapabilitiesFor(pm costmodel.Params, cacheSupport bool) Capabilities {
	return Capabilities{
		Model:        pm.Name,
		Params:       pm,
		Cores:        pm.Cores,
		LineRateGbps: pm.LineRateGbps,
		CacheSupport: cacheSupport,
	}
}

// Target is everything the runtime loop needs from a device: transactional
// program deployment, measurement, profile collection, entry management,
// and a capability description. Implementations must be safe for
// concurrent use — the runtime's optimization rounds, verification
// windows, and control-plane entry churn all overlap.
type Target interface {
	// Program returns the currently running program (the staged one after
	// an uncommitted Deploy). The result is read-only: a backend may hand
	// out the program it runs (Local) or the one copy it keeps (Remote).
	// Clone it before changing it or deploying it elsewhere.
	Program() *p4ir.Program
	// Digest returns Program().Digest() without hashing a program the
	// backend has hashed before: the device keeps its program's digest
	// (Local), the remote asks whether the held one is still running.
	Digest() (p4ir.Digest, error)

	// Deploy stages prog on the device, checkpointing the running program
	// so Rollback can restore it. A failed Deploy leaves the previous
	// program running and no checkpoint staged. The backend keeps a copy,
	// never prog itself: the caller goes on to hold and edit it.
	Deploy(prog *p4ir.Program) error
	// Commit finalizes the most recent Deploy, discarding the checkpoint.
	// ErrNoCheckpoint when no deploy is staged.
	Commit() error
	// Rollback restores the program checkpointed by the most recent
	// Deploy. ErrNoCheckpoint when no deploy is staged.
	Rollback() error

	// Measure processes the batch and returns aggregate statistics. Input
	// packets are neither mutated nor kept past the call.
	Measure(pkts []*packet.Packet) (Measurement, error)
	// Profile returns the profiling counters accumulated since the last
	// resetting call; reset=true closes the window and starts a new one.
	Profile(reset bool) (*profile.Profile, error)
	// CacheStats returns per-cache counters for hit-rate feedback (empty
	// when the deployed program has no caches).
	CacheStats() ([]CacheStats, error)

	// Entry management against the deployed program's tables.
	InsertEntry(table string, e p4ir.Entry) error
	DeleteEntry(table string, match []p4ir.MatchValue) error
	ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error

	// Capabilities describes the device model.
	Capabilities() Capabilities
	// Close releases backend resources (network connections, trace files).
	Close() error
}
