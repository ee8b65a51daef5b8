package controlplane

import (
	"bytes"
	"sync"
	"testing"

	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/profile/profiletest"
)

// fakeBackend implements Backend in memory.
type fakeBackend struct {
	mu   sync.Mutex
	prog *p4ir.Program
}

func newFakeBackend() *fakeBackend {
	prog, err := p4ir.ChainTables("cp", []p4ir.TableSpec{{
		Name:          "acl",
		Keys:          []p4ir.Key{{Field: "tcp.dport", Kind: p4ir.MatchExact, Width: 16}},
		Actions:       []*p4ir.Action{p4ir.DropAction(), p4ir.NoopAction("allow")},
		DefaultAction: "allow",
	}})
	if err != nil {
		panic(err)
	}
	return &fakeBackend{prog: prog}
}

func (f *fakeBackend) InsertEntry(table string, e p4ir.Entry) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.prog.InsertEntry(table, e)
	return err
}

func (f *fakeBackend) DeleteEntry(table string, match []p4ir.MatchValue) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.prog.DeleteEntry(table, match)
	return err
}

func (f *fakeBackend) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err := f.prog.ModifyEntry(table, match, action, args)
	return err
}

func (f *fakeBackend) Current() (*p4ir.Program, p4ir.Digest) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.prog, f.prog.Digest()
}

func (f *fakeBackend) program() *p4ir.Program {
	p, _ := f.Current()
	return p
}

func startServer(t *testing.T) (*Server, *Client, *fakeBackend, *profile.Collector) {
	t.Helper()
	backend := newFakeBackend()
	col := profile.NewCollector()
	srv, err := NewServer("127.0.0.1:0", backend, col)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl, backend, col
}

func TestPing(t *testing.T) {
	_, cl, _, _ := startServer(t)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDeleteModifyOverTCP(t *testing.T) {
	_, cl, backend, _ := startServer(t)
	e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: 23}}, Action: "drop_packet"}
	if err := cl.InsertEntry("acl", e); err != nil {
		t.Fatal(err)
	}
	if got := len(backend.program().Tables["acl"].Entries); got != 1 {
		t.Fatalf("backend entries = %d", got)
	}
	if err := cl.ModifyEntry("acl", e.Match, "allow", nil); err != nil {
		t.Fatal(err)
	}
	if got := backend.program().Tables["acl"].Entries[0].Action; got != "allow" {
		t.Errorf("action = %q", got)
	}
	if err := cl.DeleteEntry("acl", e.Match); err != nil {
		t.Fatal(err)
	}
	if got := len(backend.program().Tables["acl"].Entries); got != 0 {
		t.Errorf("entries after delete = %d", got)
	}
}

func TestInsertErrorsSurface(t *testing.T) {
	_, cl, _, _ := startServer(t)
	err := cl.InsertEntry("ghost", p4ir.Entry{Action: "x"})
	if err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestProgramFetch(t *testing.T) {
	_, cl, _, _ := startServer(t)
	prog, err := cl.Program()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := prog.Tables["acl"]; !ok {
		t.Error("program fetch lost tables")
	}
}

func TestCountersFetch(t *testing.T) {
	_, cl, _, col := startServer(t)
	rec := profiletest.NewRecorder(col)
	rec.Action("acl", "allow")
	rec.Action("acl", "allow")
	prof, err := cl.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if got := prof.TableTotal("acl"); got != 2 {
		t.Errorf("counters total = %d, want 2", got)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, _, _ := startServer(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for i := 0; i < 50; i++ {
				e := p4ir.Entry{Match: []p4ir.MatchValue{{Value: uint64(w*1000 + i)}}, Action: "drop_packet"}
				if err := cl.InsertEntry("acl", e); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := &Request{ID: 7, Op: OpInsert, Table: "t", Entry: &p4ir.Entry{Action: "a", Match: []p4ir.MatchValue{{Value: 1}}}}
	if err := writeFrame(&buf, req, nil); err != nil {
		t.Fatal(err)
	}
	var back Request
	if _, err := readFrame(&buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != 7 || back.Op != OpInsert || back.Entry.Action != "a" {
		t.Errorf("round trip mangled: %+v", back)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	var v Request
	if _, err := readFrame(&buf, &v); err == nil {
		t.Error("oversized frame must be rejected")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	srv, cl, _, _ := startServer(t)
	srv.Close()
	if err := cl.Ping(); err == nil {
		t.Error("ping after close should fail")
	}
}
