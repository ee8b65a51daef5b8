package target

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
)

// Trace is a data file recorded from a device session by cmd/tracegen:
// the capabilities the device advertised, the program it ran and the
// profile windows it closed, in order. `pipeleon -trace` re-optimizes its
// last window offline; the corpus tests lint and plan its program.
type Trace struct {
	// Name labels the trace (device + workload).
	Name string `json:"name"`
	// Capabilities is the recorded device description.
	Capabilities Capabilities `json:"capabilities"`
	// Program embeds the program the trace was recorded against, so
	// offline tools need no second file.
	Program json.RawMessage `json:"program,omitempty"`
	// Profiles are the closed profile windows, one per round.
	Profiles []*profile.Profile `json:"profiles"`
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

// LoadTrace reads a trace from a JSON file. Keys it does not know — the
// measurement and cache-stat queues of older traces — are ignored.
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
