package controlplane

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pipeleon/internal/analysis"
	"pipeleon/internal/faultinject"
	"pipeleon/internal/memo"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// Backend is the surface the server drives — satisfied by *core.Runtime.
// It may be nil when the server fronts a raw device (WithDevice), in
// which case entry and program ops route to the device instead.
type Backend interface {
	InsertEntry(table string, e p4ir.Entry) error
	DeleteEntry(table string, match []p4ir.MatchValue) error
	ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error
	// Current returns the deployed program and the digest the backend
	// keeps of it.
	Current() (*p4ir.Program, p4ir.Digest)
}

// idemEntries bounds the server's idempotency-replay window: the responses
// of recently seen mutating requests, by idempotency key, so a retried
// request replays the recorded outcome instead of double-applying. Old keys
// are evicted FIFO; a retry arriving after eviction re-applies (the window
// is sized far beyond any client's in-flight retry horizon).
const idemEntries = 4096

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithFaultInjector makes the server consult inj on connection reads and
// response writes (PointConnRead, PointConnWrite) — the wire's half of
// the fault-injection harness; device faults are injected at the target
// the server is handed (target.WithFaults). Production servers omit it.
func WithFaultInjector(inj faultinject.Injector) ServerOption {
	return func(s *Server) { s.faults = inj }
}

// WithStatus makes OpStats serve the JSON document produced by fn —
// typically the runtime's aggregate status (core.Runtime.Status) — so
// remote observers like fleetd can read rollback/breaker counts without
// replaying round history. The option keeps this package decoupled from
// internal/core: the server never names the status type, it just
// forwards bytes.
func WithStatus(fn func() ([]byte, error)) ServerOption {
	return func(s *Server) { s.statusFn = fn }
}

// WithDevice exposes dev over the device operations (deploy / commit /
// rollback / measure / profile / cachestats / capabilities), making the
// server the far end of a target/remote backend. The backend may then be
// nil — a pure device server with no on-box optimizer — and entry and
// program ops fall through to the device.
func WithDevice(dev target.Target) ServerOption {
	return func(s *Server) { s.device = dev }
}

// WithDeepVerify puts a deep analysis.Verifier behind the OpDeploy gate:
// staged programs additionally carry the value-range lints (warnings on
// the wire), and every deploy after the first must be proven a sound
// rewrite — same dependency orderings, same per-path-class drop behaviour
// and egress field ranges — of the baseline: the first program the device
// accepted, kept in step with every entry operation the server has served
// since. This matches the runtime model where a device server hosts one
// program being continuously re-optimized; serving a genuinely new
// program needs a fresh server (or no deep gate).
func WithDeepVerify() ServerOption {
	return func(s *Server) { s.deepVerify = true }
}

// Server serves the control protocol over TCP.
type Server struct {
	backend   Backend
	collector *profile.Collector // optional, for OpCounters
	device    target.Target      // optional, for device ops
	ln        net.Listener
	idem      *memo.Table[string, *Response]
	faults    faultinject.Injector
	statusFn  func() ([]byte, error) // optional, for OpStats

	wire wireCounters

	// gate is the check OpDeploy puts every staged program through — the
	// one a local runtime's deploys pass — under the device's Params, which
	// a server takes as fixed from its first deploy on (a remote fetches
	// Capabilities once, too). A deepVerify server's gate proves candidates
	// against baseline: the server's own copy of the first program the
	// device accepted, on which it repeats the entry operations it serves.
	// Both are nil until a first deploy (deep: a first accepted one).
	deepVerify bool
	gateMu     sync.Mutex // guards gate, baseline and baseline's entries
	gate       *analysis.Gate
	baseline   *p4ir.Program

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts a server on addr (e.g. "127.0.0.1:0"). The collector
// may be nil, disabling OpCounters.
func NewServer(addr string, backend Backend, collector *profile.Collector, opts ...ServerOption) (*Server, error) {
	s := &Server{
		backend: backend, collector: collector, conns: map[net.Conn]struct{}{}, idem: memo.New[string, *Response](idemEntries),
	}
	for _, o := range opts {
		o(s)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// WireStats counts what a server moved in frame bodies and what its deploy
// gate reused — enough to tell from a running daemon whether a link is
// re-sending programs.
type WireStats struct {
	// ProgramsSent / ProgramsUnchanged count program fetches answered with
	// the program and answered "you have it" with no body.
	ProgramsSent      uint64 `json:"programs_sent"`
	ProgramsUnchanged uint64 `json:"programs_unchanged"`
	// BodyBytesIn / BodyBytesOut total the frame bodies received (staged
	// programs, packet batches) and sent (programs, answers).
	BodyBytesIn  uint64 `json:"body_bytes_in"`
	BodyBytesOut uint64 `json:"body_bytes_out"`
	// LintMemoHits / LintMemoMisses count deploys whose gate verdict was
	// remembered and computed.
	LintMemoHits   uint64 `json:"lint_memo_hits"`
	LintMemoMisses uint64 `json:"lint_memo_misses"`
}

type wireCounters struct {
	programsSent, programsUnchanged, bodyBytesIn, bodyBytesOut atomic.Uint64
}

// WireStats returns the server's wire counters. The default OpStats
// document carries them; a WithStatus document can include them.
func (s *Server) WireStats() WireStats {
	var hits, misses uint64
	s.gateMu.Lock()
	if s.gate != nil {
		hits, misses = s.gate.MemoStats()
	}
	s.gateMu.Unlock()
	return WireStats{
		ProgramsSent:      s.wire.programsSent.Load(),
		ProgramsUnchanged: s.wire.programsUnchanged.Load(),
		BodyBytesIn:       s.wire.bodyBytesIn.Load(),
		BodyBytesOut:      s.wire.bodyBytesOut.Load(),
		LintMemoHits:      hits,
		LintMemoMisses:    misses,
	}
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and closes every connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) faultAt(p faultinject.Point) faultinject.Decision {
	return faultinject.At(s.faults, p)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		var req Request
		body, err := readFrame(conn, &req)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
				// Clean client close / server shutdown.
			case errors.Is(err, io.ErrUnexpectedEOF):
				log.Printf("controlplane: %s: truncated frame: %v", conn.RemoteAddr(), err)
			default:
				log.Printf("controlplane: %s: malformed or failed read: %v", conn.RemoteAddr(), err)
			}
			return
		}
		req.Body = body
		s.wire.bodyBytesIn.Add(uint64(len(body)))
		if d := s.faultAt(faultinject.PointConnRead); !d.None() {
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			if d.Drop {
				return
			}
		}
		resp := s.handle(&req)
		// A drop here models the ambiguous failure: the mutation is
		// applied (and its outcome recorded under the idempotency key)
		// but the client never sees the response.
		if d := s.faultAt(faultinject.PointConnWrite); !d.None() {
			if d.Delay > 0 {
				time.Sleep(d.Delay)
			}
			if d.Drop {
				return
			}
		}
		if err := writeFrame(conn, resp, resp.Body); err != nil {
			log.Printf("controlplane: write: %v", err)
			return
		}
		s.wire.bodyBytesOut.Add(uint64(len(resp.Body)))
	}
}

func (s *Server) handle(req *Request) *Response {
	if req.Idem != "" && mutating(req.Op) {
		if prev, ok := s.idem.Get(req.Idem); ok {
			replay := *prev
			replay.ID = req.ID
			return &replay
		}
	}
	resp := s.apply(req)
	if req.Idem != "" && mutating(req.Op) {
		s.idem.Put(req.Idem, resp)
	}
	return resp
}

func (s *Server) apply(req *Request) *Response {
	resp := &Response{ID: req.ID, OK: true}
	fail := func(err error) *Response {
		resp.OK = false
		resp.Error = err.Error()
		return resp
	}
	if s.device == nil && slices.Contains([]Op{OpDeploy, OpCommit, OpRollback, OpMeasure, OpProfile, OpCacheStats, OpCapabilities}, req.Op) {
		return fail(errNoDevice)
	}
	switch req.Op {
	case OpPing:
	case OpInsert:
		if req.Entry == nil {
			return fail(errors.New("insert requires an entry"))
		}
		e := *req.Entry
		if err := s.entryOp(func(api entryAPI) error { return api.InsertEntry(req.Table, e) },
			func(p *p4ir.Program) (func(), error) { return p.InsertEntry(req.Table, e) }); err != nil {
			return fail(err)
		}
	case OpDelete:
		if err := s.entryOp(func(api entryAPI) error { return api.DeleteEntry(req.Table, req.Match) },
			func(p *p4ir.Program) (func(), error) { return p.DeleteEntry(req.Table, req.Match) }); err != nil {
			return fail(err)
		}
	case OpModify:
		if err := s.entryOp(func(api entryAPI) error { return api.ModifyEntry(req.Table, req.Match, req.Action, req.Args) },
			func(p *p4ir.Program) (func(), error) {
				return p.ModifyEntry(req.Table, req.Match, req.Action, req.Args)
			}); err != nil {
			return fail(err)
		}
	case OpProgram:
		// The answer is decided here, from the program running at this
		// instant: whatever changed it — an entry operation, a rollback,
		// another controller's deploy — changed its digest. The common
		// answer is "unchanged", which the runtime or the device decides by
		// the digest it keeps; the program is read and encoded only when it
		// has to travel. Program ops prefer the runtime backend; a
		// device-only server reads the device.
		var prog *p4ir.Program
		var digest p4ir.Digest
		var err error
		switch {
		case s.backend != nil:
			prog, digest = s.backend.Current()
		case s.device != nil:
			digest, err = s.device.Digest()
		default:
			err = errNoBackend
		}
		if err != nil {
			return fail(err)
		}
		if have := digest.String(); have == req.Have {
			resp.Unchanged = have
			s.wire.programsUnchanged.Add(1)
			break
		}
		if prog == nil {
			prog = s.device.Program()
		}
		resp.Body = prog.AppendBinary(nil)
		s.wire.programsSent.Add(1)
	case OpDeploy:
		// The digest is of the bytes received, never one the client names,
		// and DecodeBinary accepts them only as the canonical encoding of a
		// valid program: equal digests are equal programs.
		digest := p4ir.DigestOf(req.Body)
		prog, err := p4ir.DecodeBinary(req.Body)
		if ve := (*p4ir.ValidationError)(nil); errors.As(err, &ve) { // refused as the lint tier refuses it
			ve.Diags.Sort()
			resp.Diags, err = ve.Diags, fmt.Errorf("program rejected by static analysis: %s", ve.Diags[0])
		}
		if err != nil {
			return fail(err)
		}
		// The gate a local runtime's deploys pass, under the device's own
		// cost model, with the diagnostics on the wire. A program seen
		// before gets the verdict it got then.
		verdict, adopt := s.checkDeploy(prog, digest)
		resp.Diags = verdict.Diags
		if verdict.Refusal != "" {
			resp.OK = false
			resp.Error = "program rejected by " + verdict.Refusal
			return resp
		}
		if err := s.device.Deploy(prog); err != nil {
			return fail(err)
		}
		adopt()
	case OpCommit:
		if err := s.device.Commit(); err != nil {
			return fail(err)
		}
	case OpRollback:
		if err := s.device.Rollback(); err != nil {
			return fail(err)
		}
	case OpMeasure:
		slab := slabPool.Get().(*packetSlab)
		pkts, err := decodePackets(slab, req.Body)
		var m target.Measurement
		if err == nil {
			m, err = s.device.Measure(pkts)
		}
		slabPool.Put(slab)
		if err != nil {
			return fail(err)
		}
		resp.Body = encodeAnswer((*codec).measurement, m)
	case OpProfile:
		snap, err := s.device.Profile(req.Reset)
		if err != nil {
			return fail(err)
		}
		resp.Body = encodeProfile(snap)
	case OpCacheStats:
		cs, err := s.device.CacheStats()
		if err != nil {
			return fail(err)
		}
		resp.Body = encodeAnswer((*codec).cacheStats, cs)
	case OpCapabilities:
		data, err := json.Marshal(s.device.Capabilities())
		if err != nil {
			return fail(err)
		}
		resp.Data = data
	case OpCounters:
		// Prefer counters translated back to the original program's
		// tables (the management-API view); then the device's open
		// window; then the raw collector.
		var snap *profile.Profile
		if tr, ok := s.backend.(interface{ TranslatedCounters() *profile.Profile }); ok {
			snap = tr.TranslatedCounters()
		} else if s.device != nil {
			var err error
			snap, err = s.device.Profile(false)
			if err != nil {
				return fail(err)
			}
		} else if s.collector != nil {
			snap = s.collector.Snapshot()
		} else {
			return fail(errors.New("counters unavailable"))
		}
		resp.Body = encodeProfile(snap)
	case OpStats:
		if s.statusFn != nil {
			data, err := s.statusFn()
			if err != nil {
				return fail(err)
			}
			resp.Data = data
			break
		}
		data, err := json.Marshal(map[string]any{"ok": true, "wire": s.WireStats()})
		if err != nil {
			return fail(err)
		}
		resp.Data = data
	default:
		return fail(errors.New("unknown op " + string(req.Op)))
	}
	return resp
}

var errNoDevice = errors.New("device operations unavailable (server has no device)")

// checkDeploy asks the gate about a staged program. A deep server that has
// no baseline yet checks the program as its own original, with a gate that
// becomes the server's — the program its baseline — only when adopt is
// called: after the device accepted it.
func (s *Server) checkDeploy(prog *p4ir.Program, digest p4ir.Digest) (analysis.Verdict, func()) {
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.gate == nil && !s.deepVerify {
		s.gate = analysis.NewGate(s.device.Capabilities().Params, nil)
	}
	if s.gate != nil {
		return s.gate.Check(prog, digest), func() {}
	}
	base := prog.Clone() // the device keeps prog
	gate := analysis.NewGate(s.device.Capabilities().Params, analysis.NewVerifier(base, true))
	return gate.Check(base, digest), func() {
		s.gateMu.Lock()
		defer s.gateMu.Unlock()
		if s.gate == nil {
			s.gate, s.baseline = gate, base
		}
	}
}

// entryAPI is what entry operations apply to: the runtime backend, which
// maps them onto the original program (§2.3), or else the device, which
// applies them to the program it runs.
type entryAPI interface {
	InsertEntry(table string, e p4ir.Entry) error
	DeleteEntry(table string, match []p4ir.MatchValue) error
	ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error
}

// entryOp applies an entry operation through the entry API and, once it
// is accepted, repeats it (onBaseline) on the gate's baseline, so a deep
// gate proves later deploys against the entries the device holds now: the
// operation moves the baseline's EntryVersion, which keys the gate's
// verdicts. A shallow gate's verdicts read the candidate only.
func (s *Server) entryOp(op func(entryAPI) error, onBaseline func(*p4ir.Program) (func(), error)) error {
	var api entryAPI
	switch {
	case s.backend != nil:
		api = s.backend
	case s.device != nil:
		api = s.device
	default:
		return errNoBackend
	}
	if err := op(api); err != nil {
		return err
	}
	s.gateMu.Lock()
	defer s.gateMu.Unlock()
	if s.baseline != nil {
		// The device accepted the operation on these same entries. A
		// refusal here — a table the baseline lacks, one a rewrite
		// generated, or a baseline that differs from the device already —
		// leaves the baseline, and so every verdict, as it is.
		_, _ = onBaseline(s.baseline)
	}
	return nil
}

var errNoBackend = errors.New("no backend or device configured")
