// Command benchjson runs exp.ServeBench and writes the machine-readable
// serving benchmark report consumed by the repo's BENCH_serve.json
// baseline (see docs/SERVICE.md for how to read the numbers):
//
//	go run ./internal/serve/benchjson -o BENCH_serve.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/internal/exp"
)

type report struct {
	Schema     string                `json:"schema"`
	GoVersion  string                `json:"go_version"`
	GOOS       string                `json:"goos"`
	GOARCH     string                `json:"goarch"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	NumCPU     int                   `json:"num_cpu"`
	Bench      *exp.ServeBenchResult `json:"serve_bench"`
}

func main() {
	var (
		out       = flag.String("o", "BENCH_serve.json", "output file (- = stdout)")
		topo      = flag.String("topo", "small", "topology to serve: small, medium or large")
		k         = flag.Int("k", 8, "paths per switch pair")
		seed      = flag.Uint64("seed", 1, "path-DB and query-stream seed")
		clients   = flag.Int("clients", 0, "concurrent client connections (0 = GOMAXPROCS)")
		batch     = flag.Int("batch", 512, "pairs per routes-batch frame")
		batches   = flag.Int("batches", 100, "frames per client")
		singles   = flag.Int("singles", 2000, "single-route round trips per client")
		pairs     = flag.Int("pairs", 0, "pair sample size (0 = all ordered pairs)")
		estimator = flag.String("estimator", "link-load", "load estimator: zero, hops or link-load")
		sweep     = flag.Int("sweep-pairs", 0, "streaming-sweep phase pair count (0 = default 100000)")
		mcProcs   = flag.Int("multicore-procs", 0, "multi-core series GOMAXPROCS (0 = default 4, negative = skip)")

		overInFlight = flag.Int("overload-inflight", 1, "overload phase: server in-flight limit")
		overClients  = flag.Int("overload-clients", 0, "overload phase: concurrent clients (0 = 4×GOMAXPROCS, min 4)")
		overBatches  = flag.Int("overload-batches", 50, "overload phase: frames per client")
	)
	flag.Parse()

	res, err := exp.ServeBench(exp.ServeBenchConfig{
		Topo: *topo, K: *k, Seed: *seed, Estimator: *estimator,
		Clients: *clients, BatchSize: *batch, Batches: *batches,
		SingleOps: *singles, PairSample: *pairs,
		SweepPairs: *sweep, MultiCoreProcs: *mcProcs,
		OverloadInFlight: *overInFlight, OverloadClients: *overClients,
		OverloadBatches: *overBatches,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	rep := report{
		Schema:     "jfserve-bench/v2",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Bench:      res,
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %.0f batched lookups/sec JSON, %.0f binary (%.2fx), %.0f single ops/sec (%d clients)\n",
		*out, res.LookupsPerSec, res.BinaryLookupsPerSec, res.BinarySpeedup, res.SinglesPerSec, res.Clients)
	fmt.Printf("sweep: %.0f pairs/sec streamed (%d pairs, %d chunks)\n",
		res.SweepPairsPerSec, res.SweepPairs, res.SweepChunks)
	if mc := res.MultiCore; mc != nil {
		fmt.Printf("multi-core: %.0f JSON, %.0f binary lookups/sec at GOMAXPROCS=%d, %d stripes (%d hardware CPUs)\n",
			mc.LookupsPerSec, mc.BinaryLookupsPerSec, mc.GOMAXPROCS, mc.Stripes, mc.NumCPU)
	}
	if o := res.Overload; o != nil {
		fmt.Printf("overload: %.0f%% shed at %d clients over in-flight limit %d (p99 %.0fus)\n",
			100*o.ShedRate, o.Clients, o.MaxInFlight, o.LatencyP99Micros)
	}
}
