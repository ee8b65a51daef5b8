package p4c

import (
	"fmt"
	"os"
	"strings"

	"pipeleon/internal/p4ir"
)

// LoadFile reads a program from path: P4 source, compiled, when the path
// ends in ".p4", the JSON IR otherwise. It is the one loader behind every
// command's program argument, so its errors say which step failed in the
// words the commands print: "loading program: …" or "compiling P4: …".
func LoadFile(path string) (*p4ir.Program, error) {
	if !strings.HasSuffix(path, ".p4") {
		prog, err := p4ir.LoadFile(path)
		if err != nil {
			return nil, fmt.Errorf("loading program: %w", err)
		}
		return prog, nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loading program: %w", err)
	}
	prog, err := Compile(string(src))
	if err != nil {
		return nil, fmt.Errorf("compiling P4: %w", err)
	}
	return prog, nil
}
