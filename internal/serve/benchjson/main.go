// Command benchjson benchmarks an in-process jfserve and writes the
// machine-readable serving report committed as BENCH_serve.json (see
// docs/SERVICE.md for how to read the numbers):
//
//	go run ./internal/serve/benchjson -o BENCH_serve.json
//
// A server on a temp Unix socket loads the small topology and is driven
// by one client per GOMAXPROCS issuing batched route lookups (the
// daemon's bulk shape) over JSON and then binary connections on
// identical pair streams, single route round trips (the latency shape)
// and one server-driven streaming sweep. A second, deliberately
// under-provisioned server then measures the load-shedding path (the
// resilience shape). Client and server share the machine, so read the
// rates as a per-host floor. The command fails when the overload phase
// sheds nothing or routes nothing: either means the in-flight limiter
// is broken.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

// The fixed workload. The topology is built with the server's default
// selector, mechanism and estimator (rEDKSP, ksp-adaptive, link-load).
const (
	topoName  = "small"
	k         = 8
	seed      = 1
	batchSize = 512 // pairs per routes-batch frame
	batches   = 100 // frames per client
	singleOps = 2000
	// sweepPairs must stay within serve.MaxSweepPairs.
	sweepPairs = 100000

	// overloadInFlight is the second server's in-flight limit: every
	// concurrent request past the first sheds.
	overloadInFlight = 1
	overloadBatches  = 50
	// overloadBatchPairs is large enough that handlers run long and
	// concurrent requests genuinely collide with the in-flight limit,
	// even at GOMAXPROCS=1 where short handlers serialize without ever
	// overlapping.
	overloadBatchPairs = 4096
)

type report struct {
	Schema string `json:"schema"`
	bench.Env
	Bench *result `json:"serve_bench"`
}

// result reports a serving benchmark run. LookupsPerSec is the headline
// number docs/SERVICE.md's capacity-planning notes quote.
type result struct {
	Topo     string `json:"topology"`
	Key      string `json:"key"`
	Switches int    `json:"switches"`
	Pairs    int    `json:"pairs"`
	K        int    `json:"k"`

	Clients   int `json:"clients"`
	BatchSize int `json:"batch_size"`
	Batches   int `json:"batches_per_client"`

	LoadSeconds float64 `json:"load_seconds"`

	Lookups       int64   `json:"batched_lookups"`
	Seconds       float64 `json:"batched_seconds"`
	LookupsPerSec float64 `json:"batched_lookups_per_sec"`

	// The binary series repeats the batched phase over protocol v2
	// connections routing the identical pair streams, so the two rates
	// compare codec against codec on the same traffic. BinarySpeedup is
	// BinaryLookupsPerSec / LookupsPerSec.
	BinaryLookups       int64   `json:"binary_batched_lookups"`
	BinarySeconds       float64 `json:"binary_batched_seconds"`
	BinaryLookupsPerSec float64 `json:"binary_batched_lookups_per_sec"`
	BinarySpeedup       float64 `json:"binary_speedup_vs_json"`

	SingleOps     int64   `json:"single_ops"`
	SingleSeconds float64 `json:"single_seconds"`
	SinglesPerSec float64 `json:"single_ops_per_sec"`

	// The sweep series streams one server-generated sweep over a binary
	// connection: pairs/sec with the server driving pair generation and
	// chunked result framing instead of per-batch round trips.
	SweepPairs       int64   `json:"sweep_pairs"`
	SweepChunks      int     `json:"sweep_chunks"`
	SweepSeconds     float64 `json:"sweep_seconds"`
	SweepPairsPerSec float64 `json:"sweep_pairs_per_sec"`

	ServerLatency serve.LatencySummary `json:"server_latency"`

	Overload overloadResult `json:"overload"`
}

// overloadResult reports the load-shedding phase: an under-provisioned
// server (in-flight limit far below the offered concurrency) must shed
// with the overloaded code rather than queue or fall over, and the
// requests it does accept must stay fast.
type overloadResult struct {
	Clients     int   `json:"clients"`
	MaxInFlight int   `json:"max_in_flight"`
	Requests    int64 `json:"requests"`
	// Shed counts requests refused with the overloaded code; ShedRate
	// is Shed / Requests.
	Shed     int64   `json:"shed"`
	ShedRate float64 `json:"shed_rate"`
	// Routed counts route lookups that succeeded despite the storm.
	Routed  int64   `json:"routed_lookups"`
	Seconds float64 `json:"seconds"`
	// LatencyP99Micros is the server-side (stats) p99 service time
	// under overload — shedding must keep it flat.
	LatencyP99Micros float64 `json:"latency_p99_us"`
}

func main() {
	out := flag.String("o", "BENCH_serve.json", "output file (- = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	res, err := serveBench(context.Background())
	if err != nil {
		return err
	}
	o := res.Overload
	if o.Shed == 0 || o.Routed == 0 {
		return fmt.Errorf("overload phase shed %d and routed %d lookups over %d requests: the in-flight limiter is broken",
			o.Shed, o.Routed, o.Requests)
	}
	rep := report{Schema: "jfserve-bench/v3", Env: bench.Stamp(), Bench: res}
	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %.0f batched lookups/sec JSON, %.0f binary (%.2fx), %.0f single ops/sec (%d clients)\n",
		out, res.LookupsPerSec, res.BinaryLookupsPerSec, res.BinarySpeedup, res.SinglesPerSec, res.Clients)
	fmt.Printf("sweep: %.0f pairs/sec streamed (%d pairs, %d chunks)\n",
		res.SweepPairsPerSec, res.SweepPairs, res.SweepChunks)
	fmt.Printf("overload: %.0f%% shed at %d clients over in-flight limit %d (server p99 %.0fus)\n",
		100*o.ShedRate, o.Clients, o.MaxInFlight, o.LatencyP99Micros)
	return nil
}

// benchServer is one in-process jfserve on a Unix socket with the
// benchmark topology loaded through a control connection.
type benchServer struct {
	sock string
	ctl  *client.Client
	topo serve.TopoResult
	srv  *serve.Server
	done chan error
}

// startServer serves opts on a fresh Unix socket named name under dir
// and loads the benchmark topology. The caller must call stop.
func startServer(ctx context.Context, dir, name string, opts serve.Options) (*benchServer, error) {
	s := &benchServer{sock: filepath.Join(dir, name), srv: serve.NewServer(opts), done: make(chan error, 1)}
	l, err := net.Listen("unix", s.sock)
	if err != nil {
		return nil, err
	}
	go func() { s.done <- s.srv.Serve(l) }()
	if s.ctl, err = client.Dial(ctx, "unix", s.sock); err != nil {
		s.stop()
		return nil, err
	}
	if s.topo, err = s.ctl.TopoLoad(ctx, serve.TopoParams{Topo: topoName, K: k, Seed: seed}); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop closes the control connection, drains the server and waits for
// Serve to return.
func (s *benchServer) stop() {
	if s.ctl != nil {
		s.ctl.Close()
	}
	s.srv.Stop()
	<-s.done
}

// serveBench runs every phase and returns the BENCH_serve.json
// quantities. Any failed lookup is an error: a rate that counted
// failures would overstate throughput.
func serveBench(ctx context.Context) (*result, error) {
	clients := runtime.GOMAXPROCS(0)
	dir, err := os.MkdirTemp("", "jfserve-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := startServer(ctx, dir, "jfserve.sock", serve.Options{})
	if err != nil {
		return nil, err
	}
	defer s.stop()
	topo := s.topo

	res := &result{
		Topo: topoName, Key: topo.Key, Switches: topo.Switches,
		Pairs: topo.Pairs, K: topo.K,
		Clients: clients, BatchSize: batchSize, Batches: batches,
		LoadSeconds: topo.LoadSeconds,
	}

	// Phase 1: batched lookups over JSON, every client its own seeded
	// pair stream.
	res.Lookups, res.Seconds, err = batchedPhase(ctx, s.sock, topo, clients, false)
	if err != nil {
		return nil, err
	}
	res.LookupsPerSec = float64(res.Lookups) / res.Seconds

	// Phase 1b: the same batched traffic over binary protocol v2 — the
	// identical pair streams, so the delta is purely the codec.
	res.BinaryLookups, res.BinarySeconds, err = batchedPhase(ctx, s.sock, topo, clients, true)
	if err != nil {
		return nil, err
	}
	res.BinaryLookupsPerSec = float64(res.BinaryLookups) / res.BinarySeconds
	res.BinarySpeedup = res.BinaryLookupsPerSec / res.LookupsPerSec

	// Phase 2: single-route round trips (per-request latency shape).
	res.SingleOps, res.SingleSeconds, err = singlePhase(ctx, s.sock, topo, clients)
	if err != nil {
		return nil, err
	}
	res.SinglesPerSec = float64(res.SingleOps) / res.SingleSeconds

	// Phase 3: one streaming sweep over a binary connection. The client
	// only acknowledges chunks; the server generates pairs, routes them
	// and frames results, so this is the server-driven bulk ceiling.
	sw, err := client.DialBinary(ctx, "unix", s.sock)
	if err != nil {
		return nil, err
	}
	defer sw.Close()
	start := time.Now()
	_, done, err := sw.Sweep(ctx, topo.Key, serve.SweepParams{
		Count: sweepPairs, Seed: seed ^ 0x73777065, // "swpe"
	}, func(serve.SweepChunk) error { return nil })
	if err != nil {
		return nil, err
	}
	res.SweepSeconds = time.Since(start).Seconds()
	if done.Failed > 0 || done.Routed != sweepPairs {
		return nil, fmt.Errorf("sweep routed %d of %d pairs, %d failed", done.Routed, sweepPairs, done.Failed)
	}
	res.SweepPairs = done.Routed
	res.SweepChunks = done.Chunks
	res.SweepPairsPerSec = float64(res.SweepPairs) / res.SweepSeconds

	stats, err := s.ctl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.ServerLatency = stats.Latency

	if res.Overload, err = overloadPhase(ctx, dir); err != nil {
		return nil, err
	}
	return res, nil
}

// batchedPhase has every client issue batches routes-batch frames of
// batchSize seeded random pairs and reports total routed lookups and
// wall seconds. The pair streams depend only on the client index, never
// on the codec, so the JSON and binary series route identical traffic
// and their rates compare like for like.
func batchedPhase(ctx context.Context, sock string, topo serve.TopoResult, nclients int, binary bool) (lookups int64, seconds float64, err error) {
	dial := client.Dial
	if binary {
		dial = client.DialBinary
	}
	return perClient(ctx, sock, nclients, dial, func(i int, cl *client.Client) (int64, error) {
		rng := xrand.NewPair(seed^0x73657276, uint64(i)) // "serv"
		pairs := make([][2]int32, batchSize)
		var routed int64
		for b := 0; b < batches; b++ {
			for j := range pairs {
				s := rng.IntN(topo.Switches)
				d := rng.IntNExcept(topo.Switches, s)
				pairs[j] = [2]int32{int32(s), int32(d)}
			}
			br, err := cl.RoutesBatch(ctx, topo.Key, pairs)
			if err != nil {
				return 0, err
			}
			if br.Routed != len(pairs) {
				return 0, fmt.Errorf("routes-batch routed %d of %d pairs", br.Routed, len(pairs))
			}
			routed += int64(br.Routed)
		}
		return routed, nil
	})
}

// singlePhase has every client issue singleOps route round trips on
// seeded random pairs and reports total ops and wall seconds.
func singlePhase(ctx context.Context, sock string, topo serve.TopoResult, nclients int) (ops int64, seconds float64, err error) {
	return perClient(ctx, sock, nclients, client.Dial, func(i int, cl *client.Client) (int64, error) {
		rng := xrand.NewPair(seed^0x73676c, uint64(i)) // "sgl"
		for op := 0; op < singleOps; op++ {
			s := rng.IntN(topo.Switches)
			d := rng.IntNExcept(topo.Switches, s)
			if _, err := cl.Route(ctx, topo.Key, int32(s), int32(d)); err != nil {
				return 0, err
			}
		}
		return singleOps, nil
	})
}

// perClient dials nclients connections, runs body on each concurrently
// and returns the sum of the counts they report, the wall seconds from
// the first body's start to the last one's end, and the first error.
func perClient(ctx context.Context, sock string, nclients int,
	dial func(ctx context.Context, network, addr string) (*client.Client, error),
	body func(i int, cl *client.Client) (int64, error)) (total int64, seconds float64, err error) {
	clients := make([]*client.Client, nclients)
	defer func() {
		for _, cl := range clients {
			if cl != nil {
				cl.Close()
			}
		}
	}()
	for i := range clients {
		if clients[i], err = dial(ctx, "unix", sock); err != nil {
			return 0, 0, err
		}
	}
	counts := make([]int64, nclients)
	errs := make([]error, nclients)
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			counts[i], errs[i] = body(i, cl)
		}(i, cl)
	}
	wg.Wait()
	seconds = time.Since(start).Seconds()
	for i := range clients {
		if errs[i] != nil {
			return 0, 0, errs[i]
		}
		total += counts[i]
	}
	return total, seconds, nil
}

// overloadPhase runs the shed-rate phase: a fresh server with a tiny
// in-flight limit, hammered by pipelined batch clients with no retry
// policy while one "slow tenant" issues requests that hold an in-flight
// slot without burning CPU (the test-sleep op). The slow tenant is what
// makes the phase meaningful on any machine: CPU-bound handlers on a
// single-core box serialize and never overlap, but slot-holding slow
// requests force the batch traffic onto the shedding path, so the row
// measures the daemon saying overloaded — and staying fast — rather
// than quietly queueing behind a stalled tenant.
func overloadPhase(ctx context.Context, dir string) (overloadResult, error) {
	s, err := startServer(ctx, dir, "jfserve-overload.sock", serve.Options{
		MaxInFlight: overloadInFlight, EnableTestOps: true,
	})
	if err != nil {
		return overloadResult{}, err
	}
	defer s.stop()
	sock, topo := s.sock, s.topo

	nclients := max(4, 4*runtime.GOMAXPROCS(0))
	res := overloadResult{Clients: nclients, MaxInFlight: overloadInFlight}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2*nclients+1)
	start := time.Now()

	// The slow tenant: synchronous 5ms slot-holders for the whole phase.
	// Its own requests may shed too when batch handlers hold the slots;
	// those are not counted — it exists to generate contention.
	stopSlow := make(chan struct{})
	var slowWG sync.WaitGroup
	slowWG.Add(1)
	go func() {
		defer slowWG.Done()
		cl, err := client.Dial(ctx, "unix", sock)
		if err != nil {
			errs <- err
			return
		}
		defer cl.Close()
		for {
			select {
			case <-stopSlow:
				return
			default:
			}
			_, err := cl.Do(ctx, serve.Request{Op: serve.OpTestSleep, SleepMS: 5})
			if err != nil && ctx.Err() != nil {
				return
			}
		}
	}()

	for i := 0; i < nclients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Pipelined raw connection: all frames are written without
			// waiting for responses, so requests from different
			// connections genuinely contend for the in-flight limit (a
			// synchronous client self-clocks and never overloads a
			// single-CPU server).
			conn, err := net.Dial("unix", sock)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			rng := xrand.NewPair(seed^0x6f766572, uint64(i)) // "over"
			pairs := make([][2]int32, overloadBatchPairs)
			var writeWG sync.WaitGroup
			writeWG.Add(1)
			go func() {
				defer writeWG.Done()
				bw := bufio.NewWriterSize(conn, 64<<10)
				enc := json.NewEncoder(bw)
				for b := 0; b < overloadBatches; b++ {
					for j := range pairs {
						s := rng.IntN(topo.Switches)
						d := rng.IntNExcept(topo.Switches, s)
						pairs[j] = [2]int32{int32(s), int32(d)}
					}
					// Encode marshals before returning, so reusing pairs
					// across iterations is safe.
					if err := enc.Encode(serve.Request{
						V: serve.ProtocolVersion, ID: fmt.Sprintf("o%d-%d", i, b),
						Op: serve.OpRoutesBatch, Topo: topo.Key, Pairs: pairs,
					}); err != nil {
						errs <- err
						return
					}
				}
				if err := bw.Flush(); err != nil {
					errs <- err
				}
			}()
			sc := bufio.NewScanner(conn)
			sc.Buffer(make([]byte, 64<<10), serve.MaxFrameBytes)
			var requests, shed, routedHere int64
			if err := func() error {
				for b := 0; b < overloadBatches; b++ {
					if !sc.Scan() {
						return fmt.Errorf("overload conn closed after %d of %d responses: %v",
							b, overloadBatches, sc.Err())
					}
					var resp serve.Response
					if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
						return err
					}
					requests++
					switch {
					case resp.OK && resp.Batch != nil && resp.Batch.Routed == overloadBatchPairs:
						routedHere += int64(resp.Batch.Routed)
					case resp.Error != nil && resp.Error.Code == serve.CodeOverloaded:
						shed++
					default:
						return fmt.Errorf("overload response %+v", resp)
					}
				}
				return nil
			}(); err != nil {
				errs <- err
				conn.Close() // unblocks a writer the server stopped reading
			}
			writeWG.Wait()
			mu.Lock()
			res.Requests += requests
			res.Shed += shed
			res.Routed += routedHere
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	close(stopSlow)
	slowWG.Wait()
	res.Seconds = time.Since(start).Seconds()
	select {
	case err := <-errs:
		return overloadResult{}, err
	default:
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	stats, err := s.ctl.Stats(ctx)
	if err != nil {
		return overloadResult{}, err
	}
	res.LatencyP99Micros = stats.Latency.P99Micros
	return res, nil
}
