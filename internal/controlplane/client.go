package controlplane

import (
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"pipeleon/internal/diag"
	"pipeleon/internal/p4ir"
	"pipeleon/internal/packet"
	"pipeleon/internal/profile"
	"pipeleon/internal/stats"
	"pipeleon/internal/target"
)

// RetryPolicy controls how the client handles connection-level failures:
// timeouts, resets, and dial errors are retried (after a transparent
// reconnect) with exponential backoff and jitter; application-level
// errors and protocol violations are returned immediately. Mutating
// requests carry idempotency keys, so a retry after an ambiguous failure
// cannot double-apply.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per call (<=1 disables
	// retry).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; it doubles per
	// attempt up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac randomizes each backoff by ±frac to desynchronize
	// reconnect storms.
	JitterFrac float64
	// MaxElapsed caps the total wall-clock time one call may spend across
	// all attempts, backoffs included. Without it a call against a slow
	// or hung server is bounded only by MaxAttempts × (Timeout + backoff)
	// — long enough to stall a fleet rollout wave behind one sick device.
	// Once the deadline passes, the call returns the last error instead
	// of starting another attempt. <=0 disables the cap.
	MaxElapsed time.Duration
}

// DefaultRetryPolicy is what Dial installs.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 50 * time.Millisecond, MaxBackoff: 2 * time.Second, JitterFrac: 0.2, MaxElapsed: 15 * time.Second}
}

// Client is a synchronous control-plane client. It is safe for concurrent
// use; calls are serialized over one connection, and a broken connection
// is transparently re-dialed on the next attempt.
type Client struct {
	mu      sync.Mutex
	addr    string
	conn    net.Conn
	nextID  uint64
	session string
	rng     *stats.RNG
	// Timeout bounds each round trip (default 5s).
	Timeout time.Duration
	// DialTimeout bounds connect and reconnect attempts (default 5s).
	DialTimeout time.Duration
	// Retry governs reconnect-and-retry after connection-level failures.
	Retry RetryPolicy
}

// Dial connects to a control-plane server with the default 5s connect
// timeout.
func Dial(addr string) (*Client, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects with an explicit connect timeout, which also
// becomes the client's reconnect timeout.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	var seed [8]byte
	_, _ = crand.Read(seed[:])
	return &Client{
		addr:        addr,
		conn:        conn,
		session:     hex.EncodeToString(seed[:]),
		rng:         stats.NewRNG(binary.BigEndian.Uint64(seed[:]) | 1),
		Timeout:     5 * time.Second,
		DialTimeout: timeout,
		Retry:       DefaultRetryPolicy(),
	}, nil
}

// Close terminates the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// call runs one request to completion: it retries connection-level
// failures with backoff and transparent reconnect, keeping the same
// request ID and idempotency key across attempts so the server can
// deduplicate a retried mutation.
func (c *Client) call(req *Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID
	if mutating(req.Op) {
		req.Idem = fmt.Sprintf("%s-%d", c.session, req.ID)
	}
	attempts := c.Retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	start := time.Now()
	// overall is the wall-clock deadline for the whole call (zero = no
	// cap): backoff sleeps, reconnects, and the round trips themselves
	// are all clamped to it, so a hung server cannot hold a caller for
	// MaxAttempts full timeouts.
	var overall time.Time
	if max := c.Retry.MaxElapsed; max > 0 {
		overall = start.Add(max)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			sleep := c.backoff(attempt)
			// Never start an attempt (or even its backoff sleep) that the
			// deadline has already overtaken. The attempt cap bounds work;
			// this bounds time.
			if !overall.IsZero() && time.Now().Add(sleep).After(overall) {
				return nil, fmt.Errorf("controlplane: %s deadline exceeded after %d attempts (%.1fs elapsed, cap %s): %w",
					req.Op, attempt, time.Since(start).Seconds(), c.Retry.MaxElapsed, lastErr)
			}
			time.Sleep(sleep)
		}
		if c.conn == nil {
			dt := c.dialTimeout()
			if !overall.IsZero() {
				if rem := time.Until(overall); rem < dt {
					dt = rem
				}
			}
			if dt <= 0 {
				return nil, fmt.Errorf("controlplane: %s deadline exceeded while reconnecting (cap %s): %w",
					req.Op, c.Retry.MaxElapsed, lastErr)
			}
			conn, err := net.DialTimeout("tcp", c.addr, dt)
			if err != nil {
				lastErr = err
				continue
			}
			c.conn = conn
		}
		resp, err := c.roundTrip(req, overall)
		if err == nil {
			return resp, nil
		}
		if resp != nil {
			// The server answered: an application or protocol error,
			// not a transport fault. Retrying cannot help.
			return resp, err
		}
		lastErr = err
		c.conn.Close()
		c.conn = nil
		if errors.Is(err, ErrProtocolVersion) {
			return nil, err // nor against a peer of another build
		}
	}
	return nil, fmt.Errorf("controlplane: %s failed after %d attempts: %w", req.Op, attempts, lastErr)
}

// roundTrip performs one attempt on the current connection, its I/O
// deadline clamped to the call's overall elapsed-time cap (zero overall =
// per-attempt timeout only). A non-nil Response with a non-nil error
// marks a server-delivered failure that must not be retried.
func (c *Client) roundTrip(req *Request, overall time.Time) (*Response, error) {
	deadline := time.Now().Add(c.timeout())
	if !overall.IsZero() && overall.Before(deadline) {
		deadline = overall
	}
	if err := c.conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := writeFrame(c.conn, req, req.Body); err != nil {
		return nil, err
	}
	var resp Response
	body, err := readFrame(c.conn, &resp)
	if err != nil {
		return nil, err
	}
	resp.Body = body
	if resp.ID != req.ID {
		return &resp, fmt.Errorf("controlplane: response id %d for request %d", resp.ID, req.ID)
	}
	if !resp.OK {
		return &resp, fmt.Errorf("controlplane: %s", resp.Error)
	}
	return &resp, nil
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 5 * time.Second
	}
	return c.Timeout
}

func (c *Client) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return c.DialTimeout
}

// backoff returns the exponential, jittered sleep before retry `attempt`
// (1-based).
func (c *Client) backoff(attempt int) time.Duration {
	base := c.Retry.BaseBackoff
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	max := c.Retry.MaxBackoff
	if max <= 0 {
		max = 2 * time.Second
	}
	d := base << uint(attempt-1)
	if d > max || d <= 0 {
		d = max
	}
	if f := c.Retry.JitterFrac; f > 0 {
		j := 1 + f*(2*c.rng.Float64()-1)
		d = time.Duration(float64(d) * j)
	}
	return d
}

// Ping checks liveness.
func (c *Client) Ping() error {
	_, err := c.call(&Request{Op: OpPing})
	return err
}

// Stats fetches the server's machine-readable status document. For a
// nicd running an on-box optimizer this is the runtime's aggregate
// core.RuntimeStatus JSON (rolled-back deploys, breaker state, …); the
// raw message is returned so fleet aggregators can decode it into
// whatever schema the far end advertises.
func (c *Client) Stats() (json.RawMessage, error) {
	resp, err := c.call(&Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Data, nil
}

// InsertEntry installs an entry into a table of the original program.
func (c *Client) InsertEntry(table string, e p4ir.Entry) error {
	_, err := c.call(&Request{Op: OpInsert, Table: table, Entry: FromEntry(e)})
	return err
}

// DeleteEntry removes the entry with the given match values.
func (c *Client) DeleteEntry(table string, match []p4ir.MatchValue) error {
	_, err := c.call(&Request{Op: OpDelete, Table: table, Match: match})
	return err
}

// ModifyEntry rewrites the action of the matching entry.
func (c *Client) ModifyEntry(table string, match []p4ir.MatchValue, action string, args []string) error {
	_, err := c.call(&Request{Op: OpModify, Table: table, Match: match, Action: action, Args: args})
	return err
}

// Program fetches the currently deployed program.
func (c *Client) Program() (*p4ir.Program, error) {
	p, _, _, err := c.ProgramUnless(p4ir.Digest{})
	return p, err
}

// ProgramUnless fetches the currently deployed program, its encoding and
// its digest, unless that digest is have (the zero digest stands for "none
// held"): the server then sends no program and the result is (nil, nil,
// have, nil). The server decides, from the program it runs when the
// request arrives. enc is the body the server sent, which the decode
// validated: DecodeBinary accepts only the canonical encoding, so enc is
// the program's, and nothing else holds it.
func (c *Client) ProgramUnless(have p4ir.Digest) (prog *p4ir.Program, enc []byte, digest p4ir.Digest, err error) {
	req := &Request{Op: OpProgram}
	if have != (p4ir.Digest{}) {
		req.Have = have.String()
	}
	resp, err := c.call(req)
	if err != nil {
		return nil, nil, p4ir.Digest{}, err
	}
	if resp.Unchanged != "" {
		if resp.Unchanged != req.Have {
			return nil, nil, p4ir.Digest{}, fmt.Errorf("controlplane: server answered program %q unchanged, which the request (have %q) did not name", resp.Unchanged, req.Have)
		}
		return nil, nil, have, nil
	}
	p, err := p4ir.DecodeBinary(resp.Body)
	if err != nil {
		return nil, nil, p4ir.Digest{}, err
	}
	return p, resp.Body, p4ir.DigestOf(resp.Body), nil
}

// Counters fetches a profile snapshot from the device collector.
func (c *Client) Counters() (*profile.Profile, error) {
	resp, err := c.call(&Request{Op: OpCounters})
	if err != nil {
		return nil, err
	}
	p := profile.New()
	if err := json.Unmarshal(resp.Data, p); err != nil {
		return nil, err
	}
	return p, nil
}

// Device operations — the client half of the target/remote backend.
// They require the far end to be a device server (WithDevice).

// DeployError is returned by Deploy when the server answered with
// static-analysis diagnostics: a rejection (Diags.HasErrors()) or — never
// as an error — warnings attached to an accepted deploy. The structured
// list lets callers route individual diagnostics (by code, node, or
// severity) instead of parsing a flattened message.
type DeployError struct {
	Diags diag.List
	Err   error
}

func (e *DeployError) Error() string { return e.Err.Error() }

func (e *DeployError) Unwrap() error { return e.Err }

// Deploy stages prog on the remote device, checkpointing the running
// program for Rollback. The server lints the program against its own
// cost model first; a rejection comes back as a *DeployError carrying
// the analyzer's diagnostics.
func (c *Client) Deploy(prog *p4ir.Program) error {
	_, err := c.DeployDiags(prog)
	return err
}

// DeployDiags is Deploy, but also returns the diagnostics the server
// attached to an accepted deploy — lint warnings ride along with
// successful stagings instead of being discarded.
func (c *Client) DeployDiags(prog *p4ir.Program) (diag.List, error) {
	return c.DeployEncoded(prog.AppendBinary(nil))
}

// DeployEncoded is DeployDiags for a caller that already holds the
// program's binary form (p4ir.AppendBinary) — and with it the digest the
// server will know the program by.
func (c *Client) DeployEncoded(encoded []byte) (diag.List, error) {
	resp, err := c.call(&Request{Op: OpDeploy, Body: encoded})
	if err != nil {
		if resp != nil && len(resp.Diags) > 0 {
			return resp.Diags, &DeployError{Diags: resp.Diags, Err: err}
		}
		return nil, err
	}
	return resp.Diags, nil
}

// Commit finalizes the staged remote deploy.
func (c *Client) Commit() error {
	_, err := c.call(&Request{Op: OpCommit})
	return err
}

// Rollback restores the remotely checkpointed program.
func (c *Client) Rollback() error {
	_, err := c.call(&Request{Op: OpRollback})
	return err
}

// encodePool holds batch encode buffers, pooled rather than kept per client
// for the reason slabPool is.
var encodePool = sync.Pool{New: func() any { return new([]byte) }}

// Measure ships the batch to the device and returns its aggregate
// statistics. Packets cross the wire in serialized form (plus wire length
// and metadata), so header-level state round-trips faithfully.
func (c *Client) Measure(pkts []*packet.Packet) (target.Measurement, error) {
	buf := encodePool.Get().(*[]byte)
	*buf = appendPackets((*buf)[:0], pkts)
	resp, err := c.call(&Request{Op: OpMeasure, Body: *buf})
	encodePool.Put(buf)
	if err != nil {
		return target.Measurement{}, err
	}
	var m target.Measurement
	if err := json.Unmarshal(resp.Data, &m); err != nil {
		return target.Measurement{}, err
	}
	return m, nil
}

// ProfileWindow fetches the device's raw profile window; reset closes it.
func (c *Client) ProfileWindow(reset bool) (*profile.Profile, error) {
	resp, err := c.call(&Request{Op: OpProfile, Reset: reset})
	if err != nil {
		return nil, err
	}
	p := profile.New()
	if err := json.Unmarshal(resp.Data, p); err != nil {
		return nil, err
	}
	return p, nil
}

// CacheStats fetches the device's per-cache counters.
func (c *Client) CacheStats() ([]target.CacheStats, error) {
	resp, err := c.call(&Request{Op: OpCacheStats})
	if err != nil {
		return nil, err
	}
	var cs []target.CacheStats
	if err := json.Unmarshal(resp.Data, &cs); err != nil {
		return nil, err
	}
	return cs, nil
}

// Capabilities fetches the device's capability description.
func (c *Client) Capabilities() (target.Capabilities, error) {
	resp, err := c.call(&Request{Op: OpCapabilities})
	if err != nil {
		return target.Capabilities{}, err
	}
	var cap target.Capabilities
	if err := json.Unmarshal(resp.Data, &cap); err != nil {
		return target.Capabilities{}, err
	}
	return cap, nil
}
