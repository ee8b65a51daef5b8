package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheck drives the offline checker over the checked-in corpus and a
// few small programs written for it, pinning the exit-status tiers, the
// -json document, the target rule and the report of a trace whose embedded
// program does not decode.
func TestCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	const acl = "action deny() { drop(); }\naction permit() { }\ntable acl {\n key = { ipv4.tos: %s; }\n actions = { deny; permit; }\n default_action = permit;\n size = 16;\n const entries = { %s }\n}\ncontrol ingress { apply(acl); }\n"
	// A ternary entry strictly dominated by a coarser, higher-priority one:
	// PL202, a warning of the symbolic tier only.
	shadow := write("shadow.p4", fmt.Sprintf(acl, "ternary", "(0x10:0xf0): deny() prio 9; (0x12:0xff): permit() prio 5;"))
	// A 9-bit entry value on the 8-bit ipv4.tos key is no entry of the
	// table (P4S06, once the lint's PL104 error): the file does not load.
	wide := write("wide.p4", fmt.Sprintf(acl, "exact", "(0x1ff): deny() prio 5;"))
	trace, err := os.ReadFile("../../testdata/traces/bluefield2.json")
	if err != nil {
		t.Fatal(err)
	}
	// The embedded program's root names no node (P4S02): the trace must not
	// be read a second time as an empty program JSON that lints clean.
	broken := write("broken.json", strings.Replace(string(trace), `"init_table": "t1"`, `"init_table": "ghost"`, 1))
	const (
		dash = "../../testdata/dash.p4"
		bf2  = "../../testdata/traces/bluefield2.json"
		agx  = "../../testdata/traces/agiliocx.json"
	)

	cases := []struct {
		name           string
		files          []string
		target         string
		deep           bool
		want           int
		stdout, stderr string   // substrings the streams must hold
		models         []string // with -json: the model each file was linted under
		warnings       int      // with -json: the warnings of the last file
	}{
		{name: "corpus clean", files: []string{dash, bf2, agx}, deep: true, want: 0, stderr: "agiliocx.json: ok (0 warning(s))"},
		{name: "shallow misses PL202", files: []string{shadow}, want: 0},
		{name: "deep warns PL202", files: []string{shadow}, deep: true, want: 1, stdout: "shadow.p4: PL202 warn"},
		{name: "json PL202", files: []string{shadow}, deep: true, want: 1, stdout: `"code": "PL202"`, models: []string{"bluefield2"}, warnings: 1},
		{name: "entry P4S06", files: []string{dash, wide}, want: 3, stderr: `table "acl" line 8: p4ir: malformed entry: P4S06`},
		{name: "trace under recorded model", files: []string{dash, agx}, want: 0, models: []string{"bluefield2", "agiliocx"}},
		{name: "target overrides trace", files: []string{agx}, target: "emulated", want: 0, models: []string{"emulated"}},
		{name: "broken trace", files: []string{broken}, want: 3, stderr: "P4S02"},
		{name: "missing file", files: []string{filepath.Join(dir, "absent.p4")}, want: 3},
		{name: "unknown target", files: []string{dash}, target: "tofino", want: 3, stderr: `unknown target "tofino"`},
		{name: "no files", want: 3, stderr: "usage"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := lintFiles(tc.files, tc.target, tc.deep, tc.models != nil, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", got, tc.want, &stdout, &stderr)
			}
			if !strings.Contains(stdout.String(), tc.stdout) || !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stdout %q, want %q in it; stderr %q, want %q in it", &stdout, tc.stdout, &stderr, tc.stderr)
			}
			if tc.models == nil {
				return
			}
			var doc []fileReport
			if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
				t.Fatalf("-json output is not one document: %v\n%s", err, &stdout)
			}
			if len(doc) != len(tc.files) {
				t.Fatalf("%d reports for %d files", len(doc), len(tc.files))
			}
			for i, rep := range doc {
				if rep.File != tc.files[i] || rep.Model != tc.models[i] || rep.Errors != 0 || rep.Warnings != len(rep.Diags) {
					t.Errorf("report %d: %+v, want file %s linted under %s", i, rep, tc.files[i], tc.models[i])
				}
			}
			if last := doc[len(doc)-1]; last.Warnings != tc.warnings {
				t.Errorf("%d warnings, want %d", last.Warnings, tc.warnings)
			}
		})
	}
}
