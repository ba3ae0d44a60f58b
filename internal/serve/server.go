package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Options configures a Server. The zero value serves without limits —
// every limit and timeout below defaults to off, so embedders (tests,
// benchmarks) opt in; cmd/jfserve turns them on with production
// defaults via its flags.
type Options struct {
	// PathCache is the on-disk path-DB cache directory ("" = build
	// in-process; see docs/PATHS.md). topo-load streams warm DBs from
	// it exactly the way the experiment binaries do.
	PathCache string
	// Workers bounds build parallelism (<= 0 = GOMAXPROCS).
	Workers int
	// Logf receives one line per lifecycle event (nil = silent).
	Logf func(format string, args ...any)

	// Stripes shards each topology's mutable routing state (mechanism
	// State, load estimator, RNG) across this many independently locked
	// stripes; a source switch hashes to one stripe, so concurrent
	// adaptive choices on different stripes never contend
	// (<= 0 = GOMAXPROCS). Each stripe draws from its own
	// seeds.StripeRNG stream. Striping is statistically transparent:
	// route-choice distributions match a single-stripe server (pinned
	// by TestStripedStatisticalEquivalence), though individual choices
	// differ because each stripe has its own RNG stream.
	Stripes int

	// MaxConns bounds concurrent connections (0 = unlimited). A
	// connection over the limit receives one overloaded error frame and
	// is closed.
	MaxConns int
	// MaxInFlight bounds concurrently executing requests across all
	// connections (0 = unlimited). A request over the limit is answered
	// overloaded immediately — explicit load shedding, never queueing —
	// and the connection stays open. health is exempt.
	MaxInFlight int
	// MaxSweeps bounds concurrently streaming sweeps across all
	// connections (0 = unlimited). A sweep over the limit is answered
	// overloaded; accepted sweeps stream without holding an in-flight
	// slot.
	MaxSweeps int
	// ReadTimeout is the maximum time to receive one complete request
	// frame, and doubles as the idle timeout (0 = none). A slow-loris
	// sender trickling bytes never completes a frame in time and is
	// disconnected.
	ReadTimeout time.Duration
	// WriteTimeout is the maximum time to write one response frame
	// (0 = none). A client not draining responses is disconnected once
	// the kernel buffer backs up past the deadline.
	WriteTimeout time.Duration
	// HandlerTimeout bounds one request's handler execution (0 = none).
	// An overrunning request is answered with the timeout code and its
	// handler keeps running detached (still holding its in-flight slot,
	// so load accounting stays honest); its eventual result is dropped.
	// Note a cold topo-load of a large topology legitimately takes
	// minutes — enable this only with warm caches or -preload.
	HandlerTimeout time.Duration
	// EnableTestOps registers the test-sleep and test-crash operations
	// used by the chaos harness (internal/serve/chaos). Never set in
	// production; a normal daemon answers unknown-op.
	EnableTestOps bool
}

// stripe is one shard of a topology's mutable routing state. The
// immutable parts (DB, prewarmed View) live on the entry and are read
// lock-free; everything a Choose call mutates is striped.
type stripe struct {
	mu    sync.Mutex
	state routing.State
	est   routing.LoadEstimator
	// ll is est when the estimator is stateful link-load, nil otherwise
	// (saves a per-link type assertion on the observe path).
	ll  *routing.LinkLoadEstimator
	rng *xrand.RNG
}

// topoEntry is one resident topology: an immutable warm DB and a
// prewarmed (read-only) routing View shared by every connection, plus
// the mutable routing state sharded across stripes — a pair hashes to
// one stripe, so route requests for different stripes proceed in
// parallel while each stripe still sees a consistent choice sequence.
type topoEntry struct {
	key  string
	topo *jellyfish.Topology
	db   *paths.DB
	view *routing.View

	mechName string
	estName  string

	stripes []stripe

	pairs int
}

// stripeOf hashes a source switch onto its stripe. Striping by source
// — not by pair — is load-bearing for statistical fidelity: the
// link-load estimator prices a path by its first link, a link out of
// the source, so every count a Choose for src can read must live on
// src's stripe. observe routes each traversed link's increment to the
// stripe of the link's own source switch accordingly, keeping striped
// servers distributionally equivalent to single-stripe ones.
func (e *topoEntry) stripeOf(n graph.NodeID) *stripe {
	return &e.stripes[xrand.Mix64(uint64(uint32(n)))%uint64(len(e.stripes))]
}

// choose runs one guarded Choose call on the source's stripe, then
// feeds the chosen path to the estimators.
func (e *topoEntry) choose(src, dst graph.NodeID) (graph.Path, int) {
	st := e.stripeOf(src)
	st.mu.Lock()
	p, idx := st.state.Choose(e.view, src, dst, st.est, st.rng)
	st.mu.Unlock()
	if p != nil {
		e.observe(p)
	}
	return p, idx
}

// observe increments each traversed link on the stripe owning the
// link's source switch, one lock at a time, so a later Choose on any
// source sees the pass-through load crossing it regardless of which
// stripe chose the path.
func (e *topoEntry) observe(p graph.Path) {
	if e.stripes[0].ll == nil {
		return
	}
	for i := 0; i+1 < len(p); i++ {
		st := e.stripeOf(p[i])
		st.mu.Lock()
		st.ll.ObserveLink(p[i], p[i+1])
		st.mu.Unlock()
	}
}

// Server is the route-oracle daemon: one goroutine per connection over
// shared read-only path DBs. Create with NewServer, run with Serve
// (usually in a goroutine), stop with Stop — which closes the listener,
// lets in-flight requests finish writing their responses, and then
// closes every connection.
type Server struct {
	opts  Options
	start time.Time

	mu    sync.Mutex // guards topos
	topos map[string]*topoEntry

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	quit     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	lisMu     sync.Mutex
	listeners map[net.Listener]struct{}

	requests     atomic.Int64
	routeLookups atomic.Int64
	perOp        map[string]*atomic.Int64
	latency      *telemetry.Histogram // microsecond buckets

	// Resilience state: the in-flight semaphore (nil = unlimited), the
	// instantaneous in-flight gauge, and the shed/panic/timeout
	// counters surfaced by the health op.
	inflight    chan struct{}
	inflightNow atomic.Int64
	counters    telemetry.ServiceCounters

	// Sweep state: the concurrent-sweep semaphore (nil = unlimited)
	// and the streaming-sweep gauge surfaced by health.
	sweepSem     chan struct{}
	sweepsActive atomic.Int64
}

// NewServer returns an idle server with no topologies loaded.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:      opts,
		start:     time.Now(),
		topos:     make(map[string]*topoEntry),
		conns:     make(map[net.Conn]struct{}),
		quit:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
		perOp:     make(map[string]*atomic.Int64),
		// 1 µs buckets up to ~65 ms; slower requests (topo-load builds)
		// land in the overflow bucket and read as "at least the cap".
		latency: telemetry.NewHistogram(1, 1<<16),
	}
	for _, op := range []string{OpRoute, OpRoutesBatch, OpEstimate, OpTopoLoad, OpTopoEvict, OpStats, OpHealth, OpSweep} {
		s.perOp[op] = &atomic.Int64{}
	}
	if opts.EnableTestOps {
		s.perOp[OpTestSleep] = &atomic.Int64{}
		s.perOp[OpTestCrash] = &atomic.Int64{}
	}
	if opts.MaxInFlight > 0 {
		s.inflight = make(chan struct{}, opts.MaxInFlight)
	}
	if opts.MaxSweeps > 0 {
		s.sweepSem = make(chan struct{}, opts.MaxSweeps)
	}
	return s
}

// Counters exposes the resilience counters (shed, panics, timeouts) for
// embedders and tests; the wire-level view is the health op.
func (s *Server) Counters() telemetry.ServiceSnapshot { return s.counters.Snapshot() }

// InFlight reports the number of requests currently executing (the
// health op's in_flight field).
func (s *Server) InFlight() int { return int(s.inflightNow.Load()) }

// SweepsActive reports the number of sweeps currently streaming (the
// health op's sweeps_active field).
func (s *Server) SweepsActive() int { return int(s.sweepsActive.Load()) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on l until Stop is called. It returns nil
// after a clean shutdown and the accept error otherwise. Multiple
// Serve calls on different listeners may run concurrently.
func (s *Server) Serve(l net.Listener) error {
	s.lisMu.Lock()
	s.listeners[l] = struct{}{}
	s.lisMu.Unlock()
	defer func() {
		s.lisMu.Lock()
		delete(s.listeners, l)
		s.lisMu.Unlock()
	}()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.quit:
				return nil
			default:
				return err
			}
		}
		s.connMu.Lock()
		if s.opts.MaxConns > 0 && len(s.conns) >= s.opts.MaxConns {
			s.connMu.Unlock()
			s.counters.ConnShed.Add(1)
			// Refuse off the accept loop: the refused client may be
			// slow to drain even one frame.
			s.wg.Add(1)
			go s.refuseConn(conn)
			continue
		}
		s.conns[conn] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// refuseConn tells a connection over the limit why it is being dropped:
// one overloaded error frame (with an empty id — no request was read),
// then close. The frame is always JSON — the refusal happens before any
// negotiation byte is read, and a binary client is specified to parse a
// JSON line in place of the preamble echo as exactly this refusal
// (docs/SERVICE.md "Negotiation").
func (s *Server) refuseConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	buf, err := json.Marshal(errResponse("", CodeOverloaded,
		fmt.Sprintf("connection limit %d reached; retry with backoff", s.opts.MaxConns)))
	if err != nil {
		return
	}
	conn.Write(append(buf, '\n'))
}

// Stop shuts the server down gracefully: no new connections are
// accepted, each connection finishes the request it is currently
// serving (including writing the response) and then closes, and Stop
// returns once every connection goroutine has exited. Streaming sweeps
// notice the shutdown at their next chunk boundary and abandon the
// stream (their connection is closing with them).
func (s *Server) Stop() {
	s.stopOnce.Do(func() {
		close(s.quit)
		s.lisMu.Lock()
		for l := range s.listeners {
			l.Close()
		}
		s.lisMu.Unlock()
		// Unblock connections idle in Read with an explicit half-close:
		// CloseRead makes the pending (and every future) Read return
		// EOF while the write side stays open, so a handler mid-request
		// still writes its response in full before its loop observes
		// quit. Conn types without CloseRead (not the unix/tcp
		// listeners we create, but embedders can pass anything) fall
		// back to an already-expired read deadline.
		s.connMu.Lock()
		for c := range s.conns {
			if cr, ok := c.(interface{ CloseRead() error }); ok {
				cr.CloseRead()
			} else {
				c.SetReadDeadline(time.Now())
			}
		}
		s.connMu.Unlock()
	})
	s.wg.Wait()
	s.logf("jfserve: stopped (%d requests served)", s.requests.Load())
}

// errConnDead is returned by connWriter once a write has failed; the
// connection is closing and later writes are pointless.
var errConnDead = errors.New("serve: connection writer is dead")

// connWriter serializes every response write on one connection: the
// request loop and any streaming-sweep goroutines all write through it,
// so frames never interleave mid-frame. It owns the write deadline, the
// codec (JSON line vs binary frame) and the io-timeout accounting; the
// first failed write marks it dead and fails everything after.
type connWriter struct {
	s    *Server
	conn net.Conn
	bin  bool

	mu      sync.Mutex
	w       *bufio.Writer
	enc     *json.Encoder
	scratch []byte
	dead    bool
}

// write encodes and flushes one response in the connection's codec.
func (cw *connWriter) write(resp *Response) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.dead {
		return errConnDead
	}
	if cw.s.opts.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.s.opts.WriteTimeout))
	}
	var err error
	if cw.bin {
		var payload []byte
		if payload, err = AppendBinaryResponse(cw.scratch[:0], resp); err == nil {
			cw.scratch = payload
			err = cw.writeFrameLocked(payload)
		}
	} else {
		err = cw.enc.Encode(resp)
	}
	return cw.finishLocked(err)
}

func (cw *connWriter) writeFrameLocked(payload []byte) error {
	var hdr [4]byte
	le.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := cw.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := cw.w.Write(payload)
	return err
}

// writePreamble echoes the binary preamble (negotiation ack).
func (cw *connWriter) writePreamble() error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.s.opts.WriteTimeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.s.opts.WriteTimeout))
	}
	_, err := cw.w.Write(BinaryPreamble[:])
	return cw.finishLocked(err)
}

func (cw *connWriter) finishLocked(err error) error {
	if err == nil {
		err = cw.w.Flush()
	}
	if err != nil {
		if isTimeout(err) {
			cw.s.counters.IOTimeouts.Add(1)
		}
		cw.dead = true
	}
	return err
}

// failed reports whether a write has already failed (used by sweep
// streamers to stop routing for a connection that is gone).
func (cw *connWriter) failed() bool {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	return cw.dead
}

// opResult is the outcome of one admitted request.
type opResult struct {
	resp Response
	// poison closes the connection after the response is written (the
	// handler panicked).
	poison bool
	// after runs once the response has been written (a sweep ack
	// starting its streamer); discard runs instead when the response is
	// dropped (write failure, handler timeout), releasing what after
	// would have consumed.
	after   func()
	discard func()
}

// handleConn serves one connection. The first byte picks the codec: a
// NUL byte can only open the binary preamble (no JSON line starts with
// it), anything else is the JSON line protocol. Either way requests are
// answered in order under the configured read/write deadlines, and a
// request whose handler panics poisons only this connection: the error
// frame is written, then the connection closes.
func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
	}()

	br := bufio.NewReaderSize(conn, 64<<10)
	cw := &connWriter{s: s, conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
	cw.enc = json.NewEncoder(cw.w)

	if s.opts.ReadTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
	}
	first, err := br.Peek(1)
	if err != nil {
		s.noteReadErr(err)
		return
	}
	if first[0] == BinaryPreamble[0] {
		s.serveBinary(conn, br, cw)
		return
	}
	s.serveJSON(conn, br, cw)
}

// serveJSON reads newline-delimited JSON v1 frames into the shared
// request loop.
func (s *Server) serveJSON(conn net.Conn, br *bufio.Reader, cw *connWriter) {
	sc := bufio.NewScanner(br)
	sc.Buffer(make([]byte, 64<<10), MaxFrameBytes)
	// Unlike bufio.ScanLines, never deliver an unterminated final frame:
	// a read error (EOF, deadline expiry) mid-frame means the frame never
	// arrived, not that a truncated one did — parsing the fragment would
	// answer bad-json to a peer that sent no complete request.
	sc.Split(scanCompleteLines)
	s.serveLoop(conn, cw, decodeJSON, func() ([]byte, error) {
		if sc.Scan() {
			return sc.Bytes(), nil
		}
		err := sc.Err()
		if errors.Is(err, bufio.ErrTooLong) {
			// The frame boundary is lost; report and drop the
			// connection rather than misparse the stream.
			cw.write(respOf(errResponse("", CodeFrameTooLarge,
				fmt.Sprintf("request exceeds %d bytes", MaxFrameBytes))))
		}
		if err == nil {
			err = io.EOF
		}
		return nil, err
	})
}

// serveBinary validates the client preamble, echoes it, then reads
// length-prefixed binary v2 frames into the shared request loop.
func (s *Server) serveBinary(conn net.Conn, br *bufio.Reader, cw *connWriter) {
	cw.bin = true
	var pre [5]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		s.noteReadErr(err)
		return
	}
	if pre[1] != BinaryPreamble[1] || pre[2] != BinaryPreamble[2] || pre[3] != BinaryPreamble[3] {
		cw.write(respOf(errResponse("", CodeBadRequest,
			"malformed binary preamble; expected NUL + \"JFB\" + version")))
		return
	}
	if pre[4] != BinaryVersion {
		cw.write(respOf(errResponse("", CodeBadVersion,
			fmt.Sprintf("binary protocol version %d, server speaks %d", pre[4], BinaryVersion))))
		return
	}
	if cw.writePreamble() != nil {
		return
	}
	var buf []byte
	s.serveLoop(conn, cw, decodeBinary, func() ([]byte, error) {
		payload, err := ReadFrame(br, &buf)
		switch {
		case errors.Is(err, ErrFrameTooLarge):
			cw.write(respOf(errResponse("", CodeFrameTooLarge,
				fmt.Sprintf("frame exceeds %d bytes", MaxFrameBytes))))
		case errors.Is(err, errZeroFrame):
			// A zero length prefix carries no request and leaves
			// nothing to resync on; mirror the frame-boundary-lost
			// policy and drop the connection.
			cw.write(respOf(errResponse("", CodeBadRequest, "zero-length frame")))
		}
		return payload, err
	})
}

// serveLoop is the request loop both codecs share: read one frame,
// decode it, admit and dispatch the request, write the result in the
// connection's codec. read returns an error when the connection must
// close, having written any error frame that explains why itself;
// decode returns the response answering a frame that does not decode,
// and the connection stays open.
func (s *Server) serveLoop(conn net.Conn, cw *connWriter,
	decode func(frame []byte) (Request, *Response), read func() ([]byte, error)) {
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		if s.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opts.ReadTimeout))
		}
		frame, err := read()
		if err != nil {
			// A frame that did not complete within ReadTimeout comes from
			// an idle, stalled or slow-loris sender. Close silently: a
			// mid-frame peer cannot re-sync on an error frame.
			s.noteReadErr(err)
			return
		}
		if len(frame) == 0 {
			continue // a blank JSON line carries no request
		}
		t0 := time.Now()
		var res opResult
		if req, bad := decode(frame); bad != nil {
			res = result(*bad)
		} else {
			res = s.admit(req, cw)
		}
		s.requests.Add(1)
		s.latency.Observe(time.Since(t0).Microseconds())
		if !s.finishResult(cw, &res) {
			return
		}
	}
}

// finishResult writes one result and runs its completion hook; false
// means the connection must close.
func (s *Server) finishResult(cw *connWriter, res *opResult) bool {
	if err := cw.write(&res.resp); err != nil {
		if res.discard != nil {
			res.discard()
		}
		return false
	}
	if res.after != nil {
		res.after()
	}
	return !res.poison
}

// scanCompleteLines is bufio.ScanLines minus the final-token rule: data
// not terminated by '\n' when the reader errors out is dropped, not
// delivered.
func scanCompleteLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, bytes.TrimSuffix(data[:i], []byte{'\r'}), nil
	}
	if atEOF {
		return len(data), nil, nil // discard the fragment
	}
	return 0, nil, nil
}

// isTimeout reports whether err is a network deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// noteReadErr counts a read that ended on its deadline as an io
// timeout, unless Stop's half-close is what cut it short.
func (s *Server) noteReadErr(err error) {
	if isTimeout(err) && !s.stopping() {
		s.counters.IOTimeouts.Add(1)
	}
}

// stopping reports whether Stop has begun.
func (s *Server) stopping() bool {
	select {
	case <-s.quit:
		return true
	default:
	}
	return false
}

// respOf returns resp by pointer, for connWriter.write and the
// decoders' error answers.
func respOf(resp Response) *Response { return &resp }

// result wraps a Response as an opResult.
func result(resp Response) opResult { return opResult{resp: resp} }

// decodeJSON parses one JSON v1 line and checks its version.
func decodeJSON(line []byte) (Request, *Response) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return req, respOf(errResponse("", CodeBadJSON, err.Error()))
	}
	if req.V != ProtocolVersion {
		return req, respOf(errResponse(req.ID, CodeBadVersion,
			fmt.Sprintf("request version %d, server speaks %d", req.V, ProtocolVersion)))
	}
	return req, nil
}

// decodeBinary decodes one binary v2 payload. The protocol version was
// negotiated in the preamble, so there is no per-request version check.
func decodeBinary(payload []byte) (Request, *Response) {
	id, req, err := DecodeBinaryRequest(payload)
	if err != nil {
		return req, respOf(errResponse(binFormatID(id), CodeBadRequest,
			"malformed binary request: "+err.Error()))
	}
	return req, nil
}

// admit applies the resilience policy — health bypass, load shedding,
// handler timeout, panic recovery — around the op dispatch, identically
// for both codecs.
func (s *Server) admit(req Request, cw *connWriter) opResult {
	if c, ok := s.perOp[req.Op]; ok {
		c.Add(1)
	}
	// health must answer while the server is overloaded, so it is
	// exempt from the in-flight limit and the handler timeout. It only
	// reads atomics — cheap enough to never need shedding.
	if req.Op == OpHealth {
		return result(s.handleHealth(req))
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
		default:
			s.counters.Shed.Add(1)
			return result(errResponse(req.ID, CodeOverloaded,
				fmt.Sprintf("in-flight limit %d reached; retry with backoff", s.opts.MaxInFlight)))
		}
	}
	if s.opts.HandlerTimeout <= 0 {
		// No timeout: run inline, keeping the hot path goroutine-free.
		return s.runOp(req, cw)
	}
	done := make(chan opResult, 1)
	go func() {
		done <- s.runOp(req, cw)
	}()
	timer := time.NewTimer(s.opts.HandlerTimeout)
	defer timer.Stop()
	select {
	case r := <-done:
		return r
	case <-timer.C:
		// The handler keeps running detached, holding its in-flight
		// slot until it finishes; its result is dropped — including any
		// completion hook: a timed-out sweep admission never streams,
		// and the drain below releases its sweep slot. A detached panic
		// is still recovered and counted but can no longer poison this
		// connection — the error frame it would ride out on was already
		// replaced by this timeout.
		s.counters.HandlerTimeouts.Add(1)
		go func() {
			if r := <-done; r.discard != nil {
				r.discard()
			}
		}()
		return result(errResponse(req.ID, CodeTimeout,
			fmt.Sprintf("handler exceeded the %s request timeout", s.opts.HandlerTimeout)))
	}
}

// runOp executes one op with panic recovery, accounting it against the
// in-flight gauge and releasing the in-flight slot (if limits are on)
// when the handler returns. A poisoned result closes the connection.
func (s *Server) runOp(req Request, cw *connWriter) (res opResult) {
	s.inflightNow.Add(1)
	defer func() {
		s.inflightNow.Add(-1)
		if s.inflight != nil {
			<-s.inflight
		}
		if r := recover(); r != nil {
			s.counters.Panics.Add(1)
			s.logf("jfserve: recovered panic in %s handler: %v\n%s", req.Op, r, debug.Stack())
			res = opResult{resp: errResponse(req.ID, CodeInternal,
				fmt.Sprintf("handler panicked: %v; closing this connection", r)), poison: true}
		}
	}()
	return s.dispatch(req, cw)
}

func (s *Server) dispatch(req Request, cw *connWriter) opResult {
	switch req.Op {
	case OpRoute:
		return result(s.handleRoute(req))
	case OpRoutesBatch:
		return result(s.handleRoutesBatch(req))
	case OpEstimate:
		return result(s.handleEstimate(req))
	case OpTopoLoad:
		return result(s.handleTopoLoad(req))
	case OpTopoEvict:
		return result(s.handleTopoEvict(req))
	case OpStats:
		return result(s.handleStats(req))
	case OpSweep:
		return s.handleSweep(req, cw)
	case OpTestSleep:
		if s.opts.EnableTestOps {
			time.Sleep(time.Duration(req.SleepMS) * time.Millisecond)
			return result(okResponse(req.ID))
		}
	case OpTestCrash:
		if s.opts.EnableTestOps {
			panic("injected test-crash")
		}
	}
	return result(errResponse(req.ID, CodeUnknownOp, fmt.Sprintf("unknown op %q", req.Op)))
}

func (s *Server) handleHealth(req Request) Response {
	s.connMu.Lock()
	conns := len(s.conns)
	s.connMu.Unlock()
	s.mu.Lock()
	topos := len(s.topos)
	s.mu.Unlock()
	c := s.counters.Snapshot()
	resp := okResponse(req.ID)
	resp.Health = &HealthResult{
		Ready:           !s.stopping(),
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Topos:           topos,
		Conns:           conns,
		MaxConns:        s.opts.MaxConns,
		InFlight:        int(s.inflightNow.Load()),
		MaxInFlight:     s.opts.MaxInFlight,
		Shed:            c.Shed,
		ConnShed:        c.ConnShed,
		Panics:          c.Panics,
		HandlerTimeouts: c.HandlerTimeouts,
		IOTimeouts:      c.IOTimeouts,
		SweepsActive:    int(s.sweepsActive.Load()),
		MaxSweeps:       s.opts.MaxSweeps,
	}
	return resp
}

// entry resolves the request's topology key.
func (s *Server) entry(key string) (*topoEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.topos[key]
	return e, ok
}

// lookupCode maps a paths.DB lookup error to its protocol error code.
func lookupCode(err error) string {
	switch {
	case errors.Is(err, paths.ErrSelfPair), errors.Is(err, paths.ErrOutOfRange):
		return CodeBadPair
	case errors.Is(err, paths.ErrNotStored):
		return CodePairNotFound
	case errors.Is(err, paths.ErrNoPath):
		return CodeNoPath
	}
	return CodeBadRequest
}

// routeOne validates and routes a single pair on an entry.
func (s *Server) routeOne(e *topoEntry, src, dst int32) (RouteResult, string, error) {
	if _, err := e.db.Lookup(src, dst); err != nil {
		return RouteResult{}, lookupCode(err), err
	}
	p, idx := e.choose(src, dst)
	if p == nil {
		return RouteResult{}, CodeNoPath, fmt.Errorf("no candidate survives for %d->%d", src, dst)
	}
	s.routeLookups.Add(1)
	return RouteResult{Path: p, Index: idx, Hops: p.Hops()}, "", nil
}

func (s *Server) handleRoute(req Request) Response {
	if req.Src == nil || req.Dst == nil {
		return errResponse(req.ID, CodeBadRequest, "route needs src and dst")
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	r, code, err := s.routeOne(e, *req.Src, *req.Dst)
	if err != nil {
		return errResponse(req.ID, code, err.Error())
	}
	resp := okResponse(req.ID)
	resp.Route = &r
	return resp
}

func (s *Server) handleRoutesBatch(req Request) Response {
	if len(req.Pairs) == 0 {
		return errResponse(req.ID, CodeBadRequest, "routes-batch needs a non-empty pairs array")
	}
	if len(req.Pairs) > MaxBatchPairs {
		return errResponse(req.ID, CodeBatchTooLarge,
			fmt.Sprintf("%d pairs exceed the %d-pair batch limit", len(req.Pairs), MaxBatchPairs))
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	out := BatchResult{Entries: make([]BatchEntry, len(req.Pairs))}
	out.Routed = s.routePairs(e, req.Pairs, out.Entries, make([]RouteResult, len(req.Pairs)))
	resp := okResponse(req.ID)
	resp.Batch = &out
	return resp
}

// routePairs routes each pair into the matching entry: a routed entry
// points at the next unused slot of routes, a failed one carries its
// error code. entries and routes must hold at least len(pairs)
// elements; the caller allocates them per batch (or once per sweep),
// never per pair. It returns how many pairs routed.
func (s *Server) routePairs(e *topoEntry, pairs [][2]int32, entries []BatchEntry, routes []RouteResult) int {
	routed := 0
	for i, pr := range pairs {
		r, code, err := s.routeOne(e, pr[0], pr[1])
		if err != nil {
			entries[i] = BatchEntry{Err: code}
			continue
		}
		routes[routed] = r
		entries[i] = BatchEntry{Route: &routes[routed]}
		routed++
	}
	return routed
}

// handleSweep admits one sweep: validates it, claims a sweep slot and
// acknowledges with the chunking plan. The streamer itself starts from
// the result's after hook — only once the ack frame is on the wire, so
// chunk frames can never precede it.
func (s *Server) handleSweep(req Request, cw *connWriter) opResult {
	sp := req.Sweep
	if sp == nil {
		return result(errResponse(req.ID, CodeBadRequest, "sweep needs sweep params"))
	}
	chunk := sp.Chunk
	if chunk == 0 {
		chunk = DefaultSweepChunk
	}
	if chunk < 1 || chunk > MaxBatchPairs {
		return result(errResponse(req.ID, CodeBadRequest,
			fmt.Sprintf("sweep chunk must be 1..%d", MaxBatchPairs)))
	}
	var total int
	switch {
	case sp.Count > 0 && len(sp.Pairs) > 0:
		return result(errResponse(req.ID, CodeBadRequest, "sweep takes count or pairs, not both"))
	case sp.Count > 0:
		if sp.Count > MaxSweepPairs {
			return result(errResponse(req.ID, CodeBadRequest,
				fmt.Sprintf("%d pairs exceed the %d-pair sweep limit", sp.Count, MaxSweepPairs)))
		}
		total = sp.Count
	case len(sp.Pairs) > 0:
		if len(sp.Pairs) > MaxSweepPairs {
			return result(errResponse(req.ID, CodeBadRequest,
				fmt.Sprintf("%d pairs exceed the %d-pair sweep limit", len(sp.Pairs), MaxSweepPairs)))
		}
		total = len(sp.Pairs)
	default:
		return result(errResponse(req.ID, CodeBadRequest, "sweep needs count or pairs"))
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return result(errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo)))
	}
	if sp.Count > 0 && e.topo.N < 2 {
		return result(errResponse(req.ID, CodeBadRequest,
			"generated sweep pairs need a topology with at least 2 switches"))
	}
	if s.sweepSem != nil {
		select {
		case s.sweepSem <- struct{}{}:
		default:
			s.counters.Shed.Add(1)
			return result(errResponse(req.ID, CodeOverloaded,
				fmt.Sprintf("sweep limit %d reached; retry with backoff", s.opts.MaxSweeps)))
		}
	}
	s.sweepsActive.Add(1)
	release := func() {
		s.sweepsActive.Add(-1)
		if s.sweepSem != nil {
			<-s.sweepSem
		}
	}
	chunks := (total + chunk - 1) / chunk
	resp := okResponse(req.ID)
	resp.Sweep = &SweepStart{TotalPairs: total, ChunkSize: chunk, Chunks: chunks}
	id, params := req.ID, *sp
	return opResult{
		resp: resp,
		after: func() {
			s.wg.Add(1)
			go s.runSweep(e, cw, id, params, chunk, total, release)
		},
		discard: release,
	}
}

// runSweep streams one sweep's chunk frames through the connection
// writer, interleaving with the request loop's responses. It stops
// early — abandoning the stream, no SweepDone — when the server is
// stopping or the connection's writer has died; either way the
// connection is going down with it.
func (s *Server) runSweep(e *topoEntry, cw *connWriter, id string, sp SweepParams, chunk, total int, release func()) {
	defer s.wg.Done()
	defer release()
	var rng *xrand.RNG
	if sp.Count > 0 {
		// The generated pair stream is seeded server-side, so the same
		// (seed, count) sweep routes the same pairs on every run and
		// over either codec.
		rng = xrand.NewPair(sp.Seed, 0x73777065) // "swpe"
	}
	nodes := e.topo.N
	// Pairs, entries and routes are reused across chunks: the writer
	// encodes synchronously, so nothing references them once write
	// returns.
	entries := make([]BatchEntry, chunk)
	routes := make([]RouteResult, chunk)
	var gen [][2]int32
	if rng != nil {
		gen = make([][2]int32, chunk)
	}
	var seq int
	var routed, failed int64
	for off := 0; off < total; off += chunk {
		if s.stopping() || cw.failed() {
			return
		}
		n := chunk
		if total-off < n {
			n = total - off
		}
		var pairs [][2]int32
		if rng != nil {
			pairs = gen[:n]
			for i := range pairs {
				src := rng.IntN(nodes)
				pairs[i] = [2]int32{int32(src), int32(rng.IntNExcept(nodes, src))}
			}
		} else {
			pairs = sp.Pairs[off : off+n]
		}
		chunkRouted := s.routePairs(e, pairs, entries[:n], routes)
		routed += int64(chunkRouted)
		failed += int64(n - chunkRouted)
		resp := okResponse(id)
		resp.SweepChunk = &SweepChunk{Seq: seq, Routed: chunkRouted, Entries: entries[:n]}
		if cw.write(&resp) != nil {
			return
		}
		seq++
	}
	resp := okResponse(id)
	resp.SweepDone = &SweepDone{Chunks: seq, Routed: routed, Failed: failed}
	cw.write(&resp)
}

func (s *Server) handleEstimate(req Request) Response {
	if req.Src == nil || req.Dst == nil {
		return errResponse(req.ID, CodeBadRequest, "estimate needs src and dst")
	}
	e, ok := s.entry(req.Topo)
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	ps, err := e.db.Lookup(*req.Src, *req.Dst)
	if err != nil {
		return errResponse(req.ID, lookupCode(err), err.Error())
	}
	resp := okResponse(req.ID)
	est := estimatePair(ps)
	resp.Estimate = &est
	return resp
}

// estimatePair computes the pair's path-set quality and the
// isolated-flow Equation-1 throughput: the pair's k sub-flows load each
// link they cross (injection/ejection load k by construction, so a
// fully link-disjoint set scores exactly 1.0), each sub-flow moves at
// the reciprocal of its path's maximum load, and the flow's throughput
// is the sum — the model of internal/model restricted to one flow.
func estimatePair(ps []graph.Path) EstimateResult {
	res := EstimateResult{Candidates: len(ps), MaxShare: paths.MaxShare(ps)}
	counts := make(map[uint64]int, 8*len(ps))
	totHops := 0
	for _, p := range ps {
		if h := p.Hops(); res.MinHops == 0 || h < res.MinHops {
			res.MinHops = h
		}
		totHops += p.Hops()
		for i := 0; i+1 < len(p); i++ {
			counts[dirKey(p[i], p[i+1])]++
		}
	}
	if len(ps) > 0 {
		res.AvgHops = float64(totHops) / float64(len(ps))
	}
	k := len(ps)
	for _, p := range ps {
		maxLoad := k // the shared injection/ejection links
		for i := 0; i+1 < len(p); i++ {
			if c := counts[dirKey(p[i], p[i+1])]; c > maxLoad {
				maxLoad = c
			}
		}
		res.Throughput += 1 / float64(maxLoad)
	}
	return res
}

func dirKey(u, v graph.NodeID) uint64 {
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// TopoKey renders the identity of one loaded topology:
// "<graph fingerprint>|<selector canonical form>|<seed>". The same
// triple keys the on-disk path cache, so one key always denotes one
// exact path DB.
func TopoKey(g *graph.Graph, cfg ksp.Config, seed uint64) string {
	return fmt.Sprintf("%016x|%s|%d", g.Fingerprint(), cfg.Canonical(), seed)
}

func (s *Server) handleTopoLoad(req Request) Response {
	if req.Params == nil {
		return errResponse(req.ID, CodeBadRequest, "topo-load needs params")
	}
	res, err := s.LoadTopology(*req.Params)
	if err != nil {
		code := CodeTopoLoad
		var badParam *paramError
		if errors.As(err, &badParam) {
			code = CodeBadRequest
		}
		return errResponse(req.ID, code, err.Error())
	}
	resp := okResponse(req.ID)
	resp.Topo = &res
	return resp
}

// paramError marks a topo-load failure caused by the request itself.
type paramError struct{ err error }

func (e *paramError) Error() string { return e.err.Error() }
func (e *paramError) Unwrap() error { return e.err }

// LoadTopology builds (or cache-loads) the path DB described by p and
// makes it resident. It is what topo-load calls; cmd/jfserve also calls
// it directly for -preload. Loading an already resident key is
// idempotent: the existing DB is kept.
func (s *Server) LoadTopology(p TopoParams) (TopoResult, error) {
	if p.Selector == "" {
		p.Selector = "rEDKSP"
	}
	if p.K == 0 {
		p.K = 8
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Mechanism == "" {
		p.Mechanism = "ksp-adaptive"
	}
	if p.Estimator == "" {
		p.Estimator = "link-load"
	}
	if p.PairSample < 0 {
		return TopoResult{}, &paramError{fmt.Errorf("pair_sample must be non-negative, got %d", p.PairSample)}
	}
	if p.TopoSample < 0 {
		return TopoResult{}, &paramError{fmt.Errorf("topo_sample must be non-negative, got %d", p.TopoSample)}
	}

	var params jellyfish.Params
	if p.Topo != "" {
		var err error
		if params, err = jellyfish.ByName(p.Topo); err != nil {
			return TopoResult{}, &paramError{err}
		}
	} else {
		params = jellyfish.Params{N: p.N, X: p.X, Y: p.Y}
		if err := params.Validate(); err != nil {
			return TopoResult{}, &paramError{err}
		}
	}
	alg, err := ksp.ByName(p.Selector)
	if err != nil {
		return TopoResult{}, &paramError{err}
	}
	mech, err := routing.ByName(p.Mechanism)
	if err != nil {
		return TopoResult{}, &paramError{err}
	}
	if _, err := routing.EstimatorByName(p.Estimator); err != nil {
		return TopoResult{}, &paramError{err}
	}

	// The experiment-seed derivation (internal/seeds): same -seed, same
	// sample index → bit-identical graph and path DB as the binaries.
	topo, err := jellyfish.New(params, seeds.TopoRNG(p.Seed, p.TopoSample))
	if err != nil {
		return TopoResult{}, err
	}
	cfg := ksp.Config{Alg: alg, K: p.K}
	pathSeed := seeds.PathSeed(p.Seed, p.TopoSample, alg)
	key := TopoKey(topo.G, cfg, pathSeed)

	s.mu.Lock()
	if e, ok := s.topos[key]; ok {
		s.mu.Unlock()
		return TopoResult{Key: key, AlreadyLoaded: true, Switches: params.N,
			Terminals: topo.NumTerminals(), Pairs: e.pairs, K: e.db.K()}, nil
	}
	s.mu.Unlock()

	var prs []paths.Pair
	if p.PairSample > 0 {
		prs = paths.SamplePairs(params.N, p.PairSample, xrand.NewPair(pathSeed, 0x706172)) // "par"
	} else {
		prs = paths.AllOrderedPairs(params.N)
	}
	t0 := time.Now()
	db, cacheStats, err := paths.LoadOrBuild(s.opts.PathCache, topo.G, cfg, pathSeed, prs, s.opts.Workers)
	if err != nil {
		return TopoResult{}, err
	}
	loadSec := time.Since(t0).Seconds()

	// The View is shared by every stripe and prewarmed so Choose calls
	// only ever read it; all mutable routing state is per-stripe, each
	// stripe with its own independently seeded RNG stream and its own
	// estimator instance.
	view := &routing.View{Provider: db, NumNodes: params.N}
	view.Prewarm()
	nstripes := s.opts.Stripes
	if nstripes <= 0 {
		nstripes = runtime.GOMAXPROCS(0)
	}
	stripes := make([]stripe, nstripes)
	for i := range stripes {
		est, err := routing.EstimatorByName(p.Estimator)
		if err != nil {
			return TopoResult{}, &paramError{err}
		}
		ll, _ := est.(*routing.LinkLoadEstimator)
		stripes[i] = stripe{
			state: mech.NewState(),
			est:   est,
			ll:    ll,
			rng:   seeds.StripeRNG(pathSeed, topo.G.Fingerprint(), i),
		}
	}
	e := &topoEntry{
		key:      key,
		topo:     topo,
		db:       db,
		view:     view,
		mechName: mech.Name(),
		estName:  p.Estimator,
		stripes:  stripes,
		pairs:    db.NumPairs(),
	}
	s.mu.Lock()
	if prev, ok := s.topos[key]; ok {
		// A concurrent load won the race; keep its state.
		s.mu.Unlock()
		return TopoResult{Key: key, AlreadyLoaded: true, Switches: params.N,
			Terminals: topo.NumTerminals(), Pairs: prev.pairs, K: prev.db.K()}, nil
	}
	s.topos[key] = e
	s.mu.Unlock()
	s.logf("jfserve: loaded %s as %s (%d pairs, %d stripes, cache hit %v, %.2fs)",
		params, key, e.pairs, nstripes, cacheStats.Hit, loadSec)
	return TopoResult{Key: key, Switches: params.N, Terminals: topo.NumTerminals(),
		Pairs: e.pairs, K: p.K, CacheHit: cacheStats.Hit, LoadSeconds: loadSec}, nil
}

func (s *Server) handleTopoEvict(req Request) Response {
	if req.Topo == "" {
		return errResponse(req.ID, CodeBadRequest, "topo-evict needs topo")
	}
	s.mu.Lock()
	_, ok := s.topos[req.Topo]
	delete(s.topos, req.Topo)
	s.mu.Unlock()
	if !ok {
		return errResponse(req.ID, CodeUnknownTopo, fmt.Sprintf("topology %q not loaded", req.Topo))
	}
	s.logf("jfserve: evicted %s", req.Topo)
	return okResponse(req.ID)
}

func (s *Server) handleStats(req Request) Response {
	uptime := time.Since(s.start).Seconds()
	st := StatsResult{
		UptimeSeconds: uptime,
		Requests:      s.requests.Load(),
		RouteLookups:  s.routeLookups.Load(),
		PerOp:         make(map[string]int64, len(s.perOp)),
		Latency:       latencySummaryOf(s.latency.Summarize()),
	}
	if uptime > 0 {
		st.QPS = float64(st.Requests) / uptime
	}
	for op, c := range s.perOp {
		st.PerOp[op] = c.Load()
	}
	s.mu.Lock()
	for _, e := range s.topos {
		st.Topos = append(st.Topos, TopoInfo{
			Key: e.key, Switches: e.topo.N, Pairs: e.pairs, K: e.db.K(),
			Mechanism: e.mechName, Estimator: e.estName,
		})
	}
	s.mu.Unlock()
	sort.Slice(st.Topos, func(i, j int) bool { return st.Topos[i].Key < st.Topos[j].Key })
	resp := okResponse(req.ID)
	resp.Stats = &st
	return resp
}
