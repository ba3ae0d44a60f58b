package exp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

// ServeBenchConfig sizes a jfserve serving benchmark: an in-process
// server on a temp Unix socket, hammered by concurrent clients issuing
// batched route lookups (the daemon's intended bulk shape), then single
// route round trips (the latency shape), then an overload phase against
// a second, deliberately under-provisioned server that measures the
// load-shedding path (the resilience shape).
type ServeBenchConfig struct {
	// Topo names the topology (default small — the build must fit in
	// the bench budget; pass PairSample to bench bigger ones).
	Topo string
	// K is paths per pair (default 8).
	K int
	// Seed derives the path DB and the query streams (default 1).
	Seed uint64
	// Mechanism and Estimator configure the serving choice (defaults
	// ksp-adaptive / link-load).
	Mechanism string
	Estimator string
	// PairSample bounds the stored pairs (0 = all ordered pairs).
	PairSample int
	// Clients is the number of concurrent connections (default
	// GOMAXPROCS).
	Clients int
	// BatchSize is pairs per routes-batch frame (default 512).
	BatchSize int
	// Batches is frames per client (default 100).
	Batches int
	// SingleOps is single-route round trips per client (default 2000).
	SingleOps int
	// Workers bounds the server-side build (0 = GOMAXPROCS).
	Workers int
	// SweepPairs is the generated-pair count for the streaming sweep
	// phase (default 100000; must stay within serve.MaxSweepPairs).
	SweepPairs int
	// MultiCoreProcs is the GOMAXPROCS setting for the multi-core
	// series: a fresh server with one routing stripe per proc, driven
	// by that many clients (default 4; negative skips the series).
	MultiCoreProcs int

	// OverloadInFlight is the second server's in-flight request limit
	// (default 1 — every concurrent request past the first sheds).
	OverloadInFlight int
	// OverloadClients hammer the overloaded server concurrently
	// (default 4 × GOMAXPROCS, at least 4).
	OverloadClients int
	// OverloadBatches is frames per overload client (default 50).
	OverloadBatches int
	// OverloadBatchPairs is pairs per overload frame (default 4096 —
	// large enough that handlers run long and concurrent requests
	// genuinely collide with the in-flight limit, even at GOMAXPROCS=1
	// where short handlers serialize without ever overlapping).
	OverloadBatchPairs int
}

// OverloadResult reports the load-shedding phase: an under-provisioned
// server (in-flight limit far below the offered concurrency) must shed
// with the overloaded code rather than queue or fall over, and the
// requests it does accept must stay fast.
type OverloadResult struct {
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
	// LatencyP99Micros is the server-side p99 service time under
	// overload — shedding must keep it flat.
	LatencyP99Micros float64 `json:"latency_p99_us"`
}

// ServeBenchResult reports a serving benchmark run. LookupsPerSec is
// the headline number docs/SERVICE.md's capacity-planning notes quote.
type ServeBenchResult struct {
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

	MultiCore *MultiCoreResult `json:"multi_core,omitempty"`

	Overload *OverloadResult `json:"overload,omitempty"`
}

// MultiCoreResult reports the GOMAXPROCS≥4 series: a fresh server with
// one routing stripe per proc, driven by one client per proc over both
// codecs. NumCPU records the hardware threads actually present — on a
// single-CPU box the series measures stripe overhead under forced
// scheduling, not true parallel speedup, and readers need to know which.
type MultiCoreResult struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	NumCPU     int `json:"num_cpu"`
	Stripes    int `json:"stripes"`
	Clients    int `json:"clients"`

	Lookups       int64   `json:"batched_lookups"`
	Seconds       float64 `json:"batched_seconds"`
	LookupsPerSec float64 `json:"batched_lookups_per_sec"`

	BinaryLookups       int64   `json:"binary_batched_lookups"`
	BinarySeconds       float64 `json:"binary_batched_seconds"`
	BinaryLookupsPerSec float64 `json:"binary_batched_lookups_per_sec"`
}

func (c ServeBenchConfig) withDefaults() ServeBenchConfig {
	if c.Topo == "" {
		c.Topo = "small"
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clients == 0 {
		c.Clients = runtime.GOMAXPROCS(0)
	}
	if c.BatchSize == 0 {
		c.BatchSize = 512
	}
	if c.Batches == 0 {
		c.Batches = 100
	}
	if c.SingleOps == 0 {
		c.SingleOps = 2000
	}
	if c.SweepPairs == 0 {
		c.SweepPairs = 100000
	}
	if c.MultiCoreProcs == 0 {
		c.MultiCoreProcs = 4
	}
	if c.OverloadInFlight == 0 {
		c.OverloadInFlight = 1
	}
	if c.OverloadClients == 0 {
		c.OverloadClients = max(4, 4*runtime.GOMAXPROCS(0))
	}
	if c.OverloadBatches == 0 {
		c.OverloadBatches = 50
	}
	if c.OverloadBatchPairs == 0 {
		c.OverloadBatchPairs = 4096
	}
	return c
}

// ServeBench starts a jfserve server on a temp Unix socket, loads the
// configured topology, and drives it with concurrent batched lookups
// over both codecs (JSON v1 then binary v2 on identical pair streams),
// single route round trips, and one server-driven streaming sweep,
// then repeats the batched series against a striped GOMAXPROCS≥4
// server and finally measures the shed rate and latency of an
// under-provisioned server under overload (the BENCH_serve.json
// quantities; run via `make bench-serve`).
func ServeBench(cfg ServeBenchConfig) (*ServeBenchResult, error) {
	cfg = cfg.withDefaults()
	ctx := context.Background()
	if cfg.BatchSize > serve.MaxBatchPairs || cfg.OverloadBatchPairs > serve.MaxBatchPairs {
		return nil, fmt.Errorf("exp: batch size %d exceeds the protocol's %d-pair limit",
			max(cfg.BatchSize, cfg.OverloadBatchPairs), serve.MaxBatchPairs)
	}
	if cfg.SweepPairs > serve.MaxSweepPairs {
		return nil, fmt.Errorf("exp: sweep size %d exceeds the protocol's %d-pair limit",
			cfg.SweepPairs, serve.MaxSweepPairs)
	}
	dir, err := os.MkdirTemp("", "jfserve-bench")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "jfserve.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{Workers: cfg.Workers})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Stop()
		<-serveDone
	}()

	ctl, err := client.Dial(ctx, "unix", sock)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	topo, err := ctl.TopoLoad(ctx, serve.TopoParams{
		Topo: cfg.Topo, K: cfg.K, Seed: cfg.Seed,
		Mechanism: cfg.Mechanism, Estimator: cfg.Estimator,
		PairSample: cfg.PairSample,
	})
	if err != nil {
		return nil, err
	}

	res := &ServeBenchResult{
		Topo: cfg.Topo, Key: topo.Key, Switches: topo.Switches,
		Pairs: topo.Pairs, K: topo.K,
		Clients: cfg.Clients, BatchSize: cfg.BatchSize, Batches: cfg.Batches,
		LoadSeconds: topo.LoadSeconds,
	}

	// Phase 1: batched lookups over JSON, every client its own seeded
	// pair stream.
	res.Lookups, res.Seconds, err = batchedPhase(ctx, sock, cfg, topo.Key, topo.Switches, cfg.Clients, false)
	if err != nil {
		return nil, err
	}
	res.LookupsPerSec = float64(res.Lookups) / res.Seconds

	// Phase 1b: the same batched traffic over binary protocol v2 — the
	// identical pair streams, so the delta is purely the codec.
	res.BinaryLookups, res.BinarySeconds, err = batchedPhase(ctx, sock, cfg, topo.Key, topo.Switches, cfg.Clients, true)
	if err != nil {
		return nil, err
	}
	res.BinaryLookupsPerSec = float64(res.BinaryLookups) / res.BinarySeconds
	if res.LookupsPerSec > 0 {
		res.BinarySpeedup = res.BinaryLookupsPerSec / res.LookupsPerSec
	}

	// Phase 2: single-route round trips (per-request latency shape).
	clients := make([]*client.Client, cfg.Clients)
	for i := range clients {
		if clients[i], err = client.Dial(ctx, "unix", sock); err != nil {
			return nil, err
		}
		defer clients[i].Close()
	}
	errs := make(chan error, cfg.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			rng := xrand.NewPair(cfg.Seed^0x73676c, uint64(i)) // "sgl"
			for op := 0; op < cfg.SingleOps; op++ {
				s := rng.IntN(topo.Switches)
				d := rng.IntNExcept(topo.Switches, s)
				if _, err := cl.Route(ctx, topo.Key, int32(s), int32(d)); err != nil {
					errs <- err
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	res.SingleSeconds = time.Since(start).Seconds()
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	res.SingleOps = int64(cfg.Clients) * int64(cfg.SingleOps)
	res.SinglesPerSec = float64(res.SingleOps) / res.SingleSeconds

	// Phase 3: one streaming sweep over a binary connection. The client
	// only acknowledges chunks; the server generates pairs, routes them
	// and frames results, so this is the server-driven bulk ceiling.
	sw, err := client.DialBinary(ctx, "unix", sock)
	if err != nil {
		return nil, err
	}
	defer sw.Close()
	start = time.Now()
	_, done, err := sw.Sweep(ctx, topo.Key, serve.SweepParams{
		Count: cfg.SweepPairs, Seed: cfg.Seed ^ 0x73777065, // "swpe"
	}, func(serve.SweepChunk) error { return nil })
	if err != nil {
		return nil, err
	}
	res.SweepSeconds = time.Since(start).Seconds()
	res.SweepPairs = done.Routed + done.Failed
	res.SweepChunks = done.Chunks
	res.SweepPairsPerSec = float64(res.SweepPairs) / res.SweepSeconds

	stats, err := ctl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.ServerLatency = stats.Latency

	if cfg.MultiCoreProcs > 0 {
		mc, err := serveMultiCoreBench(ctx, dir, cfg)
		if err != nil {
			return nil, err
		}
		res.MultiCore = mc
	}

	over, err := serveOverloadBench(ctx, dir, cfg)
	if err != nil {
		return nil, err
	}
	res.Overload = over
	return res, nil
}

// batchedPhase drives nclients concurrent connections, each issuing
// cfg.Batches routes-batch frames of cfg.BatchSize seeded random pairs,
// and reports total routed lookups and wall seconds. The pair streams
// depend only on (cfg.Seed, client index), never on the codec, so the
// JSON and binary series route identical traffic and their rates
// compare like for like.
func batchedPhase(ctx context.Context, sock string, cfg ServeBenchConfig, topoKey string, switches, nclients int, binary bool) (lookups int64, seconds float64, err error) {
	dial := client.Dial
	if binary {
		dial = client.DialBinary
	}
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
	errs := make(chan error, nclients)
	var mu sync.Mutex
	var routed int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl *client.Client) {
			defer wg.Done()
			rng := xrand.NewPair(cfg.Seed^0x73657276, uint64(i)) // "serv"
			pairs := make([][2]int32, cfg.BatchSize)
			var mine int64
			for b := 0; b < cfg.Batches; b++ {
				for j := range pairs {
					s := rng.IntN(switches)
					d := rng.IntNExcept(switches, s)
					pairs[j] = [2]int32{int32(s), int32(d)}
				}
				br, err := cl.RoutesBatch(ctx, topoKey, pairs)
				if err != nil {
					errs <- err
					return
				}
				mine += int64(br.Routed)
			}
			mu.Lock()
			routed += mine
			mu.Unlock()
		}(i, cl)
	}
	wg.Wait()
	seconds = time.Since(start).Seconds()
	select {
	case err := <-errs:
		return 0, 0, err
	default:
	}
	return routed, seconds, nil
}

// serveMultiCoreBench runs the GOMAXPROCS≥4 series: it raises
// GOMAXPROCS for the duration (restored on return), starts a fresh
// server with one routing stripe per proc, and repeats both batched
// series with one client per proc, so the adaptive choice path
// genuinely runs striped rather than serialized on one state mutex.
func serveMultiCoreBench(ctx context.Context, dir string, cfg ServeBenchConfig) (*MultiCoreResult, error) {
	procs := cfg.MultiCoreProcs
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	sock := filepath.Join(dir, "jfserve-mc.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{Workers: cfg.Workers, Stripes: procs})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Stop()
		<-serveDone
	}()

	ctl, err := client.Dial(ctx, "unix", sock)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	topo, err := ctl.TopoLoad(ctx, serve.TopoParams{
		Topo: cfg.Topo, K: cfg.K, Seed: cfg.Seed,
		Mechanism: cfg.Mechanism, Estimator: cfg.Estimator,
		PairSample: cfg.PairSample,
	})
	if err != nil {
		return nil, err
	}

	nclients := max(cfg.Clients, procs)
	res := &MultiCoreResult{
		GOMAXPROCS: procs, NumCPU: runtime.NumCPU(),
		Stripes: procs, Clients: nclients,
	}
	res.Lookups, res.Seconds, err = batchedPhase(ctx, sock, cfg, topo.Key, topo.Switches, nclients, false)
	if err != nil {
		return nil, err
	}
	res.LookupsPerSec = float64(res.Lookups) / res.Seconds
	res.BinaryLookups, res.BinarySeconds, err = batchedPhase(ctx, sock, cfg, topo.Key, topo.Switches, nclients, true)
	if err != nil {
		return nil, err
	}
	res.BinaryLookupsPerSec = float64(res.BinaryLookups) / res.BinarySeconds
	return res, nil
}

// serveOverloadBench runs the shed-rate phase: a fresh server with a
// tiny in-flight limit, hammered by pipelined batch clients with no
// retry policy while one "slow tenant" issues requests that hold an
// in-flight slot without burning CPU (the test-sleep op). The slow
// tenant is what makes the phase meaningful on any machine: CPU-bound
// handlers on a single-core box serialize and never overlap, but
// slot-holding slow requests force the batch traffic onto the shedding
// path, so the row measures the daemon saying overloaded — and staying
// fast — rather than quietly queueing behind a stalled tenant.
func serveOverloadBench(ctx context.Context, dir string, cfg ServeBenchConfig) (*OverloadResult, error) {
	sock := filepath.Join(dir, "jfserve-overload.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Options{
		Workers: cfg.Workers, MaxInFlight: cfg.OverloadInFlight, EnableTestOps: true,
	})
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		srv.Stop()
		<-serveDone
	}()

	ctl, err := client.Dial(ctx, "unix", sock)
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	topo, err := ctl.TopoLoad(ctx, serve.TopoParams{
		Topo: cfg.Topo, K: cfg.K, Seed: cfg.Seed,
		Mechanism: cfg.Mechanism, Estimator: cfg.Estimator,
		PairSample: cfg.PairSample,
	})
	if err != nil {
		return nil, err
	}

	res := &OverloadResult{Clients: cfg.OverloadClients, MaxInFlight: cfg.OverloadInFlight}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, 2*cfg.OverloadClients+1)
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

	for i := 0; i < cfg.OverloadClients; i++ {
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
			rng := xrand.NewPair(cfg.Seed^0x6f766572, uint64(i)) // "over"
			pairs := make([][2]int32, cfg.OverloadBatchPairs)
			var writeWG sync.WaitGroup
			writeWG.Add(1)
			go func() {
				defer writeWG.Done()
				bw := bufio.NewWriterSize(conn, 64<<10)
				enc := json.NewEncoder(bw)
				for b := 0; b < cfg.OverloadBatches; b++ {
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
			for b := 0; b < cfg.OverloadBatches; b++ {
				if !sc.Scan() {
					errs <- fmt.Errorf("exp: overload conn closed after %d of %d responses: %v",
						b, cfg.OverloadBatches, sc.Err())
					break
				}
				var resp serve.Response
				if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
					errs <- err
					break
				}
				requests++
				switch {
				case resp.OK && resp.Batch != nil:
					routedHere += int64(resp.Batch.Routed)
				case resp.Error != nil && resp.Error.Code == serve.CodeOverloaded:
					shed++
				default:
					errs <- fmt.Errorf("exp: overload response %+v", resp)
				}
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
		return nil, err
	default:
	}
	if res.Requests > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Requests)
	}
	stats, err := ctl.Stats(ctx)
	if err != nil {
		return nil, err
	}
	res.LatencyP99Micros = stats.Latency.P99Micros
	return res, nil
}
