package pipeleon

import (
	"pipeleon/internal/core"
	"pipeleon/internal/nicsim"
	"pipeleon/internal/packet"
	"pipeleon/internal/target"
	"pipeleon/internal/trafficgen"
)

// Packet is a parsed or synthesized packet.
type Packet = packet.Packet

// EmulatorConfig configures the software SmartNIC.
type EmulatorConfig = nicsim.Config

// Emulator is the software SmartNIC (run-to-completion multicore model
// with per-packet cycle accounting).
type Emulator = nicsim.NIC

// Measurement aggregates processed-batch statistics.
type Measurement = nicsim.Measurement

// NewEmulator builds an emulator running prog under cfg.
func NewEmulator(prog *Program, cfg EmulatorConfig) (*Emulator, error) {
	return nicsim.New(prog, cfg)
}

// TrafficGen synthesizes packet workloads (the TRex/trafgen stand-in).
type TrafficGen = trafficgen.Generator

// Flow describes one traffic flow.
type Flow = trafficgen.Flow

// NewTrafficGen creates a generator with the paper's 512 B packets.
func NewTrafficGen(seed uint64) *TrafficGen { return trafficgen.New(seed, 0) }

// UniformFlows builds count random flows.
func UniformFlows(seed uint64, count int) []Flow { return trafficgen.UniformFlows(seed, count) }

// DropTargetedFlows builds flows where dropFrac of traffic matches
// field == dropValue.
func DropTargetedFlows(seed uint64, count int, field string, dropValue uint64, dropFrac float64) []Flow {
	return trafficgen.DropTargetedFlows(seed, count, field, dropValue, dropFrac)
}

// Runtime is the live Pipeleon control loop bound to an emulator: windowed
// profiling, re-optimization, hot swap, and API mapping.
type Runtime = core.Runtime

// RoundReport summarizes one optimization round.
type RoundReport = core.RoundReport

// NewRuntime deploys prog to the emulator and returns the control loop.
// The collector must be the same one wired into the emulator's config.
// Internally the emulator is wrapped in a local deployment target
// (internal/target); the explicitly passed cost model overrides the
// emulator's own parameters so existing callers keep their semantics.
func NewRuntime(prog *Program, emu *Emulator, col *Collector, pm Target, o Options) (*Runtime, error) {
	tgt := target.NewLocal(emu, col)
	tgt.SetCapabilities(target.CapabilitiesFor(pm, true))
	return core.NewRuntime(prog, tgt, o)
}
