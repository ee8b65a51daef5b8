package target_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipeleon/internal/target"
)

// FuzzLoadTrace feeds arbitrary bytes down the path a trace handed to
// `pipeleon -trace` takes: load it, decode the embedded program, and read
// the last profile window against that program. A malformed trace is an
// error; nothing may panic.
func FuzzLoadTrace(f *testing.F) {
	// Small seeds: the engine spends its budget minimizing a 40 KB input,
	// and the checked-in traces are loaded by the corpus tests anyway. The
	// first and last are in the older format, whose measurement and
	// cache-stat queues a trace no longer holds: it still loads.
	f.Add([]byte(`{"name":"x","capabilities":{},"measurements":[{}],"profiles":[null],"cache_stats":[null,[{}]]}`))
	f.Add([]byte(`{"program":{"name":"p","init_table":"t","tables":[{"name":"t","key":[],"actions":[]}],"conditionals":[]},"profiles":[{},null]}`))
	f.Add([]byte(`{"name":"t","capabilities":{"model":"bluefield2","cores":8},"program":{"name":"p","init_table":"t","tables":[{"name":"t","key":[{"target":"ipv4.dstAddr","match_type":"exact","width":32}],"actions":[{"name":"drop","primitives":[{"op":"drop"}]}],"next_tables":{"drop":"c"}}],"conditionals":[{"name":"c","expression":"meta.x == 1","true_next":"t","read_fields":["meta.x"]}]},"measurements":[{"packets":8,"mean_latency_ns":250.5}],"profiles":[{"sample_rate":1,"action_counts":{"t":{"drop":3}},"branch_counts":{"c":[1,2]}}],"cache_stats":[[{"table":"c0","hits":1}]]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		trace, err := target.LoadTrace(path)
		if err != nil {
			return
		}
		prog, err := trace.EmbeddedProgram()
		if err != nil || prog == nil || len(trace.Profiles) == 0 {
			return
		}
		last := trace.Profiles[len(trace.Profiles)-1]
		for node, r := range last.ReachProbs(prog) {
			if math.IsNaN(r) || r < 0 {
				t.Fatalf("node %s reached with probability %v", node, r)
			}
		}
	})
}
