// Package remote implements target.Target over the control-plane
// protocol: every call becomes an RPC against a nicd device server
// (controlplane.WithDevice), so the Pipeleon optimization loop can run
// off-box from the device it is tuning. Connection-level failures are
// retried by the underlying client with idempotency keys, so a retried
// Deploy or Measure cannot double-apply.
//
// A program crosses the wire only when it changed: the remote holds one
// program beside its digest — the last it fetched, or the last it deployed —
// and Program and Digest name that digest to the server, which answers
// "unchanged" when it still runs exactly that. Neither side hashes a program
// to say so: the server's device keeps its program's digest, and this side
// hashed the held one once, when it arrived.
package remote

import (
	"sync"

	"pipeleon/internal/controlplane"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/target"
)

// Remote drives a device server over a control-plane client.
type Remote struct {
	client *controlplane.Client
	cap    target.Capabilities

	// held is the one program kept on this side, in p4ir's binary encoding
	// (a fraction of the decoded program's heap) — the body a fetch received
	// or what Deploy encoded — and digest its content digest; nil until the
	// first fetch or deploy. Program hands out a decoded copy, so held is
	// never memory a caller can write: core.Runtime edits the program it
	// deployed in place on the entry fast path. mu also spans the RPC that
	// replaces them, so held and digest always belong together.
	mu     sync.Mutex
	held   []byte
	digest p4ir.Digest
}

// Dial connects to a device server and fetches its capabilities.
func Dial(addr string) (*Remote, error) {
	client, err := controlplane.Dial(addr)
	if err != nil {
		return nil, err
	}
	return New(client)
}

// New wraps an existing client, fetching capabilities once; the remote
// owns the client from here (Close closes it).
func New(client *controlplane.Client) (*Remote, error) {
	cap, err := client.Capabilities()
	if err != nil {
		client.Close()
		return nil, err
	}
	return &Remote{client: client, cap: cap}, nil
}

// Program returns a copy of the device's currently deployed program, nil
// when it cannot be read. Every call asks the device; the program itself
// crosses only when it is not the held one, and is then decoded once: the
// caller gets the program the fetch decoded, which holds none of the body.
func (r *Remote) Program() *p4ir.Program {
	enc, fetched, _, err := r.current()
	if err != nil {
		return nil
	}
	if fetched != nil {
		return fetched
	}
	prog, err := p4ir.DecodeBinary(enc)
	if err != nil {
		return nil
	}
	return prog
}

// Digest is Program's round trip, answered with the held digest: the held
// program is not hashed again.
func (r *Remote) Digest() (p4ir.Digest, error) {
	_, _, digest, err := r.current()
	return digest, err
}

// current asks the device whether it still runs the held program, holds the
// one it runs when not, and returns the held pair, with the program the
// fetch decoded when there was one.
func (r *Remote) current() (held []byte, fetched *p4ir.Program, digest p4ir.Digest, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	fetched, enc, digest, err := r.client.ProgramUnless(r.digest)
	if err != nil {
		return nil, nil, p4ir.Digest{}, err
	}
	if fetched != nil {
		r.held, r.digest = enc, digest
	}
	return r.held, fetched, r.digest, nil
}

// Deploy stages prog on the remote device and keeps its encoding as the
// held program: it is what the device runs until something changes it.
func (r *Remote) Deploy(prog *p4ir.Program) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := prog.AppendBinary(nil)
	if _, err := r.client.DeployEncoded(enc); err != nil {
		return err
	}
	r.held, r.digest = enc, p4ir.DigestOf(enc)
	return nil
}

// Commit finalizes the staged deploy.
func (r *Remote) Commit() error { return r.client.Commit() }

// Rollback restores the checkpointed program.
func (r *Remote) Rollback() error { return r.client.Rollback() }

// Measure ships the batch to the device.
func (r *Remote) Measure(pkts []*packet.Packet) (target.Measurement, error) {
	return r.client.Measure(pkts)
}

// Profile fetches the device's counter window.
func (r *Remote) Profile(reset bool) (*profile.Profile, error) {
	return r.client.ProfileWindow(reset)
}

// CacheStats fetches per-cache counters.
func (r *Remote) CacheStats() ([]target.CacheStats, error) { return r.client.CacheStats() }

// InsertEntry adds an entry on the device.
func (r *Remote) InsertEntry(table string, e p4ir.Entry) error {
	return r.client.InsertEntry(table, e)
}

// DeleteEntry removes the first matching entry on the device.
func (r *Remote) DeleteEntry(table string, match []p4ir.MatchValue) error {
	return r.client.DeleteEntry(table, match)
}

// ModifyEntry rewrites the first matching entry on the device.
func (r *Remote) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	return r.client.ModifyEntry(table, match, action, args)
}

// Capabilities returns the description fetched at connect time.
func (r *Remote) Capabilities() target.Capabilities { return r.cap }

// Close terminates the connection.
func (r *Remote) Close() error { return r.client.Close() }
