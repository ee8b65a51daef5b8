package target_test

import (
	"os"
	"path/filepath"
	"testing"

	"pipeleon/internal/target"
)

// FuzzLoadTrace feeds arbitrary bytes through the replay-trace loader and
// on through what its callers do with a trace they were handed on the
// command line (`pipeleon -trace`, core's replay tests): decode the
// embedded program, build a Replayer, drain one response queue of each
// kind past its end. A malformed trace is an error; nothing may panic.
func FuzzLoadTrace(f *testing.F) {
	// Small seeds: the engine spends its budget minimizing a 40 KB input,
	// and the checked-in traces are loaded by the replay tests anyway.
	f.Add([]byte(`{"name":"x","capabilities":{},"measurements":[{}],"profiles":[null],"cache_stats":[null,[{}]]}`))
	f.Add([]byte(`{"program":{"name":"p","init_table":"t","tables":[{"name":"t","key":[],"actions":[]}],"conditionals":[]},"profiles":[{},null],"cache_stats":[null,[{}]]}`))
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
		rp, err := target.NewReplayer(trace, nil)
		if err != nil {
			return
		}
		if rp.Program() == nil {
			t.Fatal("a replayer without a program")
		}
		for i := 0; i <= len(trace.Measurements); i++ {
			_, _ = rp.Measure(nil)
		}
		for i := 0; i <= len(trace.Profiles); i++ {
			if p, err := rp.Profile(i%2 == 0); err == nil && p == nil {
				t.Fatal("nil profile without an error")
			}
			if p, err := rp.Profile(true); err == nil && p == nil {
				t.Fatal("nil profile without an error")
			}
		}
		for i := 0; i <= len(trace.CacheStats); i++ {
			_, _ = rp.CacheStats()
		}
	})
}
