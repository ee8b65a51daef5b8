package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The golden traces are what tracegen records today: each `make traces`
// line, re-run in-process on the emulator, writes its committed file byte
// for byte. The recorded sessions deploy a profitable plan in round 1 and
// end on a layout other than the program they embed.
func TestGoldenTracesAreCurrent(t *testing.T) {
	for file, s := range map[string]spec{
		"bluefield2.json": {model: "bluefield2", seed: 7, rounds: 3, flows: 400, perWin: 4000, pipelets: 6, avgLen: 2},
		"agiliocx.json":   {model: "agiliocx", seed: 21, rounds: 3, flows: 400, perWin: 4000, pipelets: 6, avgLen: 2},
	} {
		t.Run(file, func(t *testing.T) {
			trace, rt, err := record(s, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), file)
			want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "traces", file))
			if err == nil {
				err = trace.SaveFile(path)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
				t.Errorf("testdata/traces/%s is not what tracegen records; run `make traces`", file)
			}

			hist := rt.History()
			if len(hist) != s.rounds || len(trace.Profiles) != s.rounds {
				t.Fatalf("%d rounds and %d windows recorded, want %d of each", len(hist), len(trace.Profiles), s.rounds)
			}
			if !hist[0].Deployed || hist[0].Gain <= 0 {
				t.Errorf("round 1 should deploy a profitable plan: %+v", hist[0])
			}
			for i, p := range trace.Profiles {
				if len(p.ActionCounts) == 0 {
					t.Errorf("recorded profile window %d is empty", i)
				}
			}
			if orig, err := trace.EmbeddedProgram(); err != nil {
				t.Fatal(err)
			} else if _, cur := rt.Current(); cur == orig.Digest() {
				t.Error("the recorded loop never changed the layout")
			}
		})
	}
}
