// Package client is the in-repo Go client for the jfserve wire protocol
// (docs/SERVICE.md): newline-delimited JSON requests (Dial) or
// length-prefixed binary v2 frames (DialBinary) over a Unix socket or
// TCP connection, one response per request, in order — plus streaming
// sweeps, whose chunk frames arrive between a Sweep call's ack and its
// final totals. It exists for the protocol tests, the serve smoke gate,
// the chaos harness and the serving benchmark (internal/serve/benchjson);
// a third-party client should be written from docs/SERVICE.md alone.
//
// Every call takes a context.Context: a deadline bounds the dial and
// each request's network I/O, and cancellation interrupts a call that
// is blocked mid-read. An optional RetryPolicy adds capped exponential
// backoff with full jitter for idempotent operations, honoring the
// server's overloaded code as a backpressure signal (docs/SERVICE.md
// "Retrying").
package client

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/xrand"
)

// RemoteError is a protocol-level failure: the server answered with
// ok=false and this code/message. Transport failures surface as plain
// errors instead.
type RemoteError struct {
	Code    string
	Message string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("jfserve: %s: %s", e.Code, e.Message)
}

// RetryPolicy configures automatic retries of idempotent operations.
// The zero value is not usable; fill at least MaxAttempts or use
// DefaultRetry. Backoff before attempt n (n >= 2) is a uniformly random
// ("full jitter") duration in [0, min(MaxDelay, BaseDelay·2^(n-2))] —
// the AWS-style policy that decorrelates clients a shedding server just
// turned away.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries, including the first
	// (values < 1 behave as 1 — no retries).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 5ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep (default 1s).
	MaxDelay time.Duration
	// Seed makes the jitter stream deterministic for tests; 0 picks 1.
	Seed uint64
}

// DefaultRetry is a reasonable interactive policy: 4 attempts, 5ms
// base, 1s cap.
var DefaultRetry = RetryPolicy{MaxAttempts: 4, BaseDelay: 5 * time.Millisecond, MaxDelay: time.Second}

// Client is a synchronous jfserve client. Methods may be called from
// multiple goroutines; requests are serialized on the one connection
// (for throughput, open several clients and batch — see
// internal/serve/benchjson).
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	sc     *bufio.Scanner
	w      *bufio.Writer
	enc    *json.Encoder
	nextID uint64
	closed bool

	// bin selects the binary v2 codec (DialBinary); wbuf and rbuf are
	// its reused frame buffers.
	bin  bool
	wbuf []byte
	rbuf []byte

	// Redial target; empty for New-wrapped connections, which cannot
	// reconnect and therefore never retry transport errors.
	network, addr string

	retry RetryPolicy
	rng   *xrand.RNG
}

// Dial connects to a jfserve listener ("unix", "/tmp/jfserve.sock" or
// "tcp", "host:port"). The context bounds the dial; it does not govern
// later calls (each call takes its own).
func Dial(ctx context.Context, network, addr string) (*Client, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c := New(conn)
	c.network, c.addr = network, addr
	return c, nil
}

// DialRetry is Dial plus a retry policy: idempotent calls that fail
// with overloaded, timeout or a transport error are retried with capped
// exponential backoff and full jitter, redialing as needed.
func DialRetry(ctx context.Context, network, addr string, p RetryPolicy) (*Client, error) {
	c, err := Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.SetRetry(p)
	return c, nil
}

// DialBinary connects like Dial but negotiates the binary v2 protocol:
// the five-byte preamble is sent and its echo verified before the call
// returns. Every later request rides binary frames; the API is
// otherwise identical to a JSON client's. If the server refuses the
// connection at its connection limit, the refusal arrives as one JSON
// overloaded frame in place of the echo and surfaces as that
// *RemoteError.
func DialBinary(ctx context.Context, network, addr string) (*Client, error) {
	c, err := Dial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.bin = true
	c.mu.Lock()
	err = c.handshakeLocked(ctx)
	c.mu.Unlock()
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// DialBinaryRetry is DialBinary plus a retry policy (see DialRetry).
func DialBinaryRetry(ctx context.Context, network, addr string, p RetryPolicy) (*Client, error) {
	c, err := DialBinary(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	c.SetRetry(p)
	return c, nil
}

// New wraps an established connection. A wrapped client cannot redial,
// so a retry policy set on it only retries overloaded responses (the
// connection is still good); transport failures are terminal.
func New(conn net.Conn) *Client {
	c := &Client{conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
	c.br = bufio.NewReaderSize(conn, 64<<10)
	c.sc = bufio.NewScanner(c.br)
	c.sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	c.enc = json.NewEncoder(c.w)
	return c
}

// handshakeLocked negotiates the binary protocol on a fresh connection:
// send the preamble, require its echo. A JSON byte in place of the echo
// is the server's connection-limit refusal frame (the only thing a
// server ever says before reading the preamble) and is surfaced as its
// RemoteError. The refusal is read even when sending the preamble
// failed: the server closes a refused connection right after writing
// the frame, so the send can hit the closed socket while the frame
// already waits in the receive buffer.
func (c *Client) handshakeLocked(ctx context.Context) error {
	disarm := c.armCtxLocked(ctx)
	defer disarm()
	_, werr := c.w.Write(serve.BinaryPreamble[:])
	if werr == nil {
		werr = c.w.Flush()
	}
	first, err := c.br.Peek(1)
	if err != nil {
		c.failLocked()
		if werr != nil {
			return werr
		}
		return fmt.Errorf("jfserve: binary handshake: %w", err)
	}
	if first[0] != serve.BinaryPreamble[0] {
		line, rerr := c.br.ReadBytes('\n')
		c.failLocked()
		var resp serve.Response
		if rerr == nil && json.Unmarshal(line, &resp) == nil && resp.Error != nil {
			return &RemoteError{Code: resp.Error.Code, Message: resp.Error.Message}
		}
		return fmt.Errorf("jfserve: binary handshake: unexpected byte %#02x in place of the preamble echo", first[0])
	}
	if werr != nil {
		c.failLocked()
		return werr
	}
	var echo [5]byte
	if _, err := io.ReadFull(c.br, echo[:]); err != nil {
		c.failLocked()
		return fmt.Errorf("jfserve: binary handshake: %w", err)
	}
	if echo != serve.BinaryPreamble {
		c.failLocked()
		return fmt.Errorf("jfserve: binary handshake: bad preamble echo % x", echo)
	}
	return nil
}

// SetRetry installs a retry policy (see RetryPolicy; zero MaxAttempts
// disables retries again).
func (c *Client) SetRetry(p RetryPolicy) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	c.retry = p
	c.rng = xrand.NewPair(seed, 0x6a697474) // "jitt"
}

// Close closes the connection; later calls fail without redialing.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// idempotentOps lists the operations safe to re-send when the first
// attempt's fate is unknown (transport error, server-side timeout).
// route and routes-batch advance the adaptive mechanism's state, but a
// re-sent lookup simply returns another valid choice — the daemon makes
// no exactly-once promise about choices. topo-load is idempotent by
// design (already_loaded). topo-evict is NOT: a retry after a success
// that was lost in transit answers unknown-topo.
var idempotentOps = map[string]bool{
	serve.OpRoute:       true,
	serve.OpRoutesBatch: true,
	serve.OpEstimate:    true,
	serve.OpTopoLoad:    true,
	serve.OpStats:       true,
	serve.OpHealth:      true,
}

// Do sends one request and returns the matching response, retrying
// under the client's policy. The version and a fresh id are filled in;
// a response with ok=false is returned along with the corresponding
// *RemoteError.
func (c *Client) Do(ctx context.Context, req serve.Request) (serve.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var resp serve.Response
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if serr := c.backoffLocked(ctx, attempt); serr != nil {
				return resp, err // context expired while backing off
			}
		}
		resp, err = c.doLocked(ctx, req)
		if err == nil || !c.retryableLocked(req.Op, err) || ctx.Err() != nil {
			return resp, err
		}
	}
	return resp, err
}

// retryableLocked decides whether err on op warrants another attempt.
func (c *Client) retryableLocked(op string, err error) bool {
	var re *RemoteError
	if errors.As(err, &re) {
		switch re.Code {
		case serve.CodeOverloaded:
			// Backpressure: the server refused before executing, so a
			// retry is safe for every op.
			return true
		case serve.CodeTimeout:
			// The request may have executed; only idempotent ops retry.
			return idempotentOps[op]
		}
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	// Transport error: the connection is broken (doLocked dropped it).
	// Retry only if the op is idempotent and we can redial.
	return idempotentOps[op] && c.network != "" && !c.closed
}

// backoffLocked sleeps the full-jitter backoff for the given attempt
// (1-based over the retries), honoring ctx.
func (c *Client) backoffLocked(ctx context.Context, attempt int) error {
	ceil := c.retry.BaseDelay << (attempt - 1)
	if ceil <= 0 || ceil > c.retry.MaxDelay {
		ceil = c.retry.MaxDelay
	}
	d := time.Duration(c.rng.Int64N(int64(ceil) + 1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// redialLocked re-establishes the connection after a transport failure,
// re-running the binary handshake when this is a binary client.
func (c *Client) redialLocked(ctx context.Context) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, c.network, c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.w = bufio.NewWriterSize(conn, 64<<10)
	c.br = bufio.NewReaderSize(conn, 64<<10)
	c.sc = bufio.NewScanner(c.br)
	c.sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
	c.enc = json.NewEncoder(c.w)
	if c.bin {
		if err := c.handshakeLocked(ctx); err != nil {
			return err
		}
	}
	return nil
}

// failLocked drops a connection whose stream can no longer be trusted
// (half-written frame, unread response).
func (c *Client) failLocked() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// errEncode marks a request the binary codec cannot express; the
// connection is untouched and a retry would fail identically.
var errEncode = errors.New("jfserve: request not encodable in the binary protocol")

// armCtxLocked maps the context onto the connection: the deadline
// directly, and cancellation by expiring the deadline from a
// context.AfterFunc watcher. The returned function disarms the watcher;
// if the watcher has already started, disarming waits for it to finish,
// so a late cancellation can never expire the next call's deadline.
func (c *Client) armCtxLocked(ctx context.Context) func() {
	if d, ok := ctx.Deadline(); ok {
		c.conn.SetDeadline(d)
	} else {
		c.conn.SetDeadline(time.Time{})
	}
	if ctx.Done() == nil {
		return func() {}
	}
	conn := c.conn
	fired := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0))
		close(fired)
	})
	return func() {
		if !stop() {
			<-fired
		}
	}
}

// ctxErr maps an I/O failure under ctx onto the context's error once
// the context is done. A net timeout after ctx's deadline has passed is
// context.DeadlineExceeded even while ctx.Err() is still nil: the
// connection deadline is ctx's own deadline and can fire before ctx's
// timer marks it done.
func ctxErr(ctx context.Context, err error) error {
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	var ne net.Error
	if d, ok := ctx.Deadline(); ok && errors.As(err, &ne) && ne.Timeout() && !time.Now().Before(d) {
		return context.DeadlineExceeded
	}
	return err
}

// writeReqLocked encodes and flushes one request frame in the client's
// codec. An errEncode failure leaves the connection clean.
func (c *Client) writeReqLocked(req *serve.Request) error {
	if !c.bin {
		if err := c.enc.Encode(req); err != nil {
			return err
		}
		return c.w.Flush()
	}
	id, _ := strconv.ParseUint(req.ID, 10, 64)
	b := append(c.wbuf[:0], 0, 0, 0, 0) // length prefix, patched below
	b, err := serve.AppendBinaryRequest(b, id, req)
	if err != nil {
		return fmt.Errorf("%w: %v", errEncode, err)
	}
	binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
	c.wbuf = b
	if _, err := c.w.Write(b); err != nil {
		return err
	}
	return c.w.Flush()
}

// readRespLocked reads and decodes one response frame in the client's
// codec.
func (c *Client) readRespLocked() (serve.Response, error) {
	if c.bin {
		payload, err := serve.ReadFrame(c.br, &c.rbuf)
		if err != nil {
			return serve.Response{}, err
		}
		resp, err := serve.DecodeBinaryResponse(payload)
		if err != nil {
			return serve.Response{}, fmt.Errorf("jfserve: bad response frame: %w", err)
		}
		return resp, nil
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return serve.Response{}, err
		}
		return serve.Response{}, fmt.Errorf("jfserve: connection closed")
	}
	var resp serve.Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return serve.Response{}, fmt.Errorf("jfserve: bad response frame: %w", err)
	}
	return resp, nil
}

// ensureConnLocked verifies the client is usable, redialing if needed.
func (c *Client) ensureConnLocked(ctx context.Context) error {
	if c.closed {
		return fmt.Errorf("jfserve: client is closed")
	}
	if c.conn == nil {
		if c.network == "" {
			return fmt.Errorf("jfserve: connection is closed")
		}
		return c.redialLocked(ctx)
	}
	return nil
}

// doLocked performs one attempt: write the frame, read the response.
// The context's deadline bounds the network I/O and cancellation
// interrupts a blocked read or write.
func (c *Client) doLocked(ctx context.Context, req serve.Request) (serve.Response, error) {
	if err := ctx.Err(); err != nil {
		return serve.Response{}, err
	}
	if err := c.ensureConnLocked(ctx); err != nil {
		return serve.Response{}, err
	}
	req.V = serve.ProtocolVersion
	if req.ID == "" {
		c.nextID++
		req.ID = strconv.FormatUint(c.nextID, 10)
	}

	disarm := c.armCtxLocked(ctx)
	defer disarm()

	werr := c.writeReqLocked(&req)
	if errors.Is(werr, errEncode) {
		return serve.Response{}, werr
	}
	if werr != nil && c.bin {
		c.failLocked()
		return serve.Response{}, ctxErr(ctx, werr)
	}
	// A JSON connection refused at the server's connection limit gets one
	// overloaded frame with an empty id (no request was read) and is then
	// closed. As in handshakeLocked, the frame is read even when the write
	// failed: the write can hit the closed socket while the frame already
	// waits in the receive buffer.
	resp, err := c.readRespLocked()
	if err == nil && resp.ID == "" && resp.Error != nil && resp.Error.Code == serve.CodeOverloaded {
		c.failLocked()
		return resp, &RemoteError{Code: resp.Error.Code, Message: resp.Error.Message}
	}
	if werr != nil {
		err = werr
	}
	if err != nil {
		c.failLocked()
		return serve.Response{}, ctxErr(ctx, err)
	}
	if resp.ID != req.ID {
		c.failLocked()
		return serve.Response{}, fmt.Errorf("jfserve: response id %q for request id %q", resp.ID, req.ID)
	}
	if !resp.OK {
		if resp.Error == nil {
			return resp, &RemoteError{Code: "missing-error", Message: "ok=false with no error object"}
		}
		err := &RemoteError{Code: resp.Error.Code, Message: resp.Error.Message}
		if resp.Error.Code == serve.CodeFrameTooLarge || resp.Error.Code == serve.CodeInternal {
			// The server closes the connection after these codes.
			c.failLocked()
		}
		return resp, err
	}
	return resp, nil
}

// Route asks for one chosen path on the loaded topology.
func (c *Client) Route(ctx context.Context, topo string, src, dst int32) (serve.RouteResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpRoute, Topo: topo, Src: &src, Dst: &dst})
	if err != nil {
		return serve.RouteResult{}, err
	}
	if resp.Route == nil {
		return serve.RouteResult{}, fmt.Errorf("jfserve: route response missing payload")
	}
	return *resp.Route, nil
}

// RoutesBatch routes many pairs in one frame. Entries align with pairs;
// per-pair failures carry an error code in Entry.Err.
func (c *Client) RoutesBatch(ctx context.Context, topo string, pairs [][2]int32) (serve.BatchResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpRoutesBatch, Topo: topo, Pairs: pairs})
	if err != nil {
		return serve.BatchResult{}, err
	}
	if resp.Batch == nil {
		return serve.BatchResult{}, fmt.Errorf("jfserve: routes-batch response missing payload")
	}
	return *resp.Batch, nil
}

// Sweep submits a streaming sweep and drains its whole result stream:
// the ack is returned as SweepStart, every chunk frame is handed to fn
// in order (fn may be nil to count only), and the final totals are
// returned as SweepDone. The client's connection is held for the
// duration — other goroutines' calls queue behind it.
//
// Retry semantics differ from Do because a sweep is NOT idempotent
// once admitted (each routed pair advances the topology's adaptive
// state). Only a submission refused with the overloaded code —
// guaranteed to have executed nothing — is retried under the client's
// policy. Any failure after the ack (mid-stream transport error, a
// chunk out of sequence, an fn error that leaves frames unread) drops
// the connection and returns without resubmitting.
func (c *Client) Sweep(ctx context.Context, topo string, p serve.SweepParams, fn func(serve.SweepChunk) error) (serve.SweepStart, serve.SweepDone, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var start serve.SweepStart
	var done serve.SweepDone
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if serr := c.backoffLocked(ctx, attempt); serr != nil {
				return start, done, err // context expired while backing off
			}
		}
		var started bool
		start, done, started, err = c.sweepOnceLocked(ctx, topo, p, fn)
		if err == nil || started || ctx.Err() != nil {
			return start, done, err
		}
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != serve.CodeOverloaded {
			return start, done, err
		}
	}
	return start, done, err
}

// sweepOnceLocked runs one sweep attempt. started reports that the
// server acknowledged the sweep — the point of no return for retries.
func (c *Client) sweepOnceLocked(ctx context.Context, topo string, p serve.SweepParams, fn func(serve.SweepChunk) error) (start serve.SweepStart, done serve.SweepDone, started bool, err error) {
	resp, err := c.doLocked(ctx, serve.Request{Op: serve.OpSweep, Topo: topo, Sweep: &p})
	if err != nil {
		return start, done, false, err
	}
	if resp.Sweep == nil {
		c.failLocked()
		return start, done, false, fmt.Errorf("jfserve: sweep response missing payload")
	}
	start = *resp.Sweep
	id := resp.ID

	disarm := c.armCtxLocked(ctx)
	defer disarm()
	for next := 0; ; {
		frame, rerr := c.readRespLocked()
		if rerr != nil {
			c.failLocked()
			return start, done, true, ctxErr(ctx, rerr)
		}
		if frame.ID != id {
			c.failLocked()
			return start, done, true, fmt.Errorf("jfserve: sweep stream carries id %q, want %q", frame.ID, id)
		}
		if !frame.OK {
			// Mid-stream errors are not part of the protocol; whatever
			// this is, the stream cannot be trusted.
			c.failLocked()
			if frame.Error != nil {
				return start, done, true, &RemoteError{Code: frame.Error.Code, Message: frame.Error.Message}
			}
			return start, done, true, &RemoteError{Code: "missing-error", Message: "ok=false with no error object"}
		}
		switch {
		case frame.SweepChunk != nil:
			ch := *frame.SweepChunk
			if ch.Seq != next {
				c.failLocked()
				return start, done, true, fmt.Errorf("jfserve: sweep chunk %d arrived, want %d", ch.Seq, next)
			}
			next++
			if fn != nil {
				if cbErr := fn(ch); cbErr != nil {
					// The stream's remaining frames are unread; this
					// connection cannot carry another request.
					c.failLocked()
					return start, done, true, cbErr
				}
			}
		case frame.SweepDone != nil:
			return start, *frame.SweepDone, true, nil
		default:
			c.failLocked()
			return start, done, true, fmt.Errorf("jfserve: unexpected frame in sweep stream")
		}
	}
}

// Estimate returns the pair's path-set quality and isolated-flow
// throughput estimate.
func (c *Client) Estimate(ctx context.Context, topo string, src, dst int32) (serve.EstimateResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpEstimate, Topo: topo, Src: &src, Dst: &dst})
	if err != nil {
		return serve.EstimateResult{}, err
	}
	if resp.Estimate == nil {
		return serve.EstimateResult{}, fmt.Errorf("jfserve: estimate response missing payload")
	}
	return *resp.Estimate, nil
}

// TopoLoad loads (or confirms) a topology and returns its key.
func (c *Client) TopoLoad(ctx context.Context, p serve.TopoParams) (serve.TopoResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpTopoLoad, Params: &p})
	if err != nil {
		return serve.TopoResult{}, err
	}
	if resp.Topo == nil {
		return serve.TopoResult{}, fmt.Errorf("jfserve: topo-load response missing payload")
	}
	return *resp.Topo, nil
}

// TopoEvict drops a loaded topology. It is not idempotent and is never
// retried.
func (c *Client) TopoEvict(ctx context.Context, key string) error {
	_, err := c.Do(ctx, serve.Request{Op: serve.OpTopoEvict, Topo: key})
	return err
}

// Stats returns the server's telemetry snapshot.
func (c *Client) Stats(ctx context.Context) (serve.StatsResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpStats})
	if err != nil {
		return serve.StatsResult{}, err
	}
	if resp.Stats == nil {
		return serve.StatsResult{}, fmt.Errorf("jfserve: stats response missing payload")
	}
	return *resp.Stats, nil
}

// Health returns the server's readiness and resilience counters. It is
// exempt from server-side shedding, so it answers even under overload.
func (c *Client) Health(ctx context.Context) (serve.HealthResult, error) {
	resp, err := c.Do(ctx, serve.Request{Op: serve.OpHealth})
	if err != nil {
		return serve.HealthResult{}, err
	}
	if resp.Health == nil {
		return serve.HealthResult{}, fmt.Errorf("jfserve: health response missing payload")
	}
	return *resp.Health, nil
}
