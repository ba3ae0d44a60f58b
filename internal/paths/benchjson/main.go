// Command benchjson benchmarks the packed path store and its on-disk
// cache on the paper's medium topology and writes the results as JSON,
// so `make bench` can track the path pipeline across commits
// (BENCH_paths.json at the repo root is the committed baseline):
//
//	go run ./internal/paths/benchjson -o BENCH_paths.json
//
// Three quantities matter (methodology in docs/PATHS.md):
//
//   - build throughput: pairs/sec of a shard-parallel eager build on a
//     sampled pair set of RRG(720,24,19);
//   - cache-load speedup: wall time of streaming the packed store back
//     from a cache file versus recomputing it (the win -path-cache buys);
//   - bytes/pair: resident size of the CSR-packed store versus the
//     per-path slice representation it replaced, modeled from the
//     allocations that representation performs (size-class rounded).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/paths"
	"repro/internal/xrand"
)

type report struct {
	bench.Env
	Topology string `json:"topology"`
	Selector string `json:"selector"`
	K        int    `json:"k"`
	Pairs    int    `json:"pairs"`
	Workers  int    `json:"workers"`

	BuildSeconds     float64 `json:"build_seconds"`
	BuildPairsPerSec float64 `json:"build_pairs_per_sec"`

	CacheFileBytes   int64   `json:"cache_file_bytes"`
	CacheLoadSeconds float64 `json:"cache_load_seconds"`
	CacheSpeedup     float64 `json:"cache_speedup"`

	PackedBytesPerPair float64 `json:"packed_bytes_per_pair"`
	SliceBytesPerPair  float64 `json:"slice_bytes_per_pair"`
	PackedFraction     float64 `json:"packed_fraction"`
}

// The benchmarked build: rEDKSP k=8 over 50,000 sampled pairs of the
// medium topology, on par.DefaultWorkers (one per GOMAXPROCS).
const (
	nPairs = 50000
	k      = 8
	seed   = 1
)

func main() {
	out := flag.String("o", "BENCH_paths.json", "output file (- = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	params := jellyfish.Medium
	topo, err := jellyfish.New(params, xrand.New(7))
	if err != nil {
		return err
	}
	g := topo.G
	prs := paths.SamplePairs(params.N, nPairs, xrand.New(11))
	cfg := ksp.Config{Alg: ksp.REDKSP, K: k}
	workers := par.DefaultWorkers()

	fmt.Printf("building %s %s k=%d over %d pairs...\n", params, cfg.Alg, k, len(prs))
	start := time.Now()
	db := paths.Build(g, cfg, seed, prs, workers)
	buildSec := time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "jfpc-bench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	key := paths.CacheKey(g, cfg, seed, prs)
	file := filepath.Join(dir, paths.CacheFileName(key))
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	if err := db.WriteCache(f, key); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(file)
	if err != nil {
		return err
	}

	start = time.Now()
	loaded, cs, err := paths.LoadOrBuild(dir, g, cfg, seed, prs, workers)
	loadSec := time.Since(start).Seconds()
	if err != nil {
		return err
	}
	if !cs.Hit {
		return fmt.Errorf("expected a cache hit, got a rebuild (%v)", cs.LoadErr)
	}

	st, ok := loaded.StoreStats()
	if !ok {
		return fmt.Errorf("cache-loaded DB has no packed store")
	}

	rep := report{
		Env:                bench.Stamp(),
		Topology:           params.String(),
		Selector:           cfg.Alg.String(),
		K:                  k,
		Pairs:              len(prs),
		Workers:            workers,
		BuildSeconds:       buildSec,
		BuildPairsPerSec:   float64(len(prs)) / buildSec,
		CacheFileBytes:     fi.Size(),
		CacheLoadSeconds:   loadSec,
		CacheSpeedup:       buildSec / loadSec,
		PackedBytesPerPair: float64(st.TotalBytes) / float64(st.Pairs),
		SliceBytesPerPair:  sliceBytesPerPair(db, prs),
	}
	rep.PackedFraction = rep.PackedBytesPerPair / rep.SliceBytesPerPair

	fmt.Printf("build: %.1fs (%.0f pairs/sec, workers=%d)\n", rep.BuildSeconds, rep.BuildPairsPerSec, workers)
	fmt.Printf("cache: %d bytes on disk, load %.2fs -> %.1fx faster than rebuild\n",
		rep.CacheFileBytes, rep.CacheLoadSeconds, rep.CacheSpeedup)
	fmt.Printf("store: %.1f bytes/pair packed vs %.1f bytes/pair as slices (%.0f%%)\n",
		rep.PackedBytesPerPair, rep.SliceBytesPerPair, rep.PackedFraction*100)

	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// sliceBytesPerPair computes the resident footprint of the pre-CSR
// representation — a map from pair key to a slice of individually
// allocated paths — from the allocations that representation performs:
// one map entry, one []graph.Path backing array and one node array per
// path, each rounded up to the allocator's size class the way the
// runtime would round it. Deterministic by construction, so the
// committed baseline does not wobble with GC timing.
func sliceBytesPerPair(db *paths.DB, prs []paths.Pair) float64 {
	if len(prs) == 0 {
		return 0
	}
	const (
		pathHeaderBytes = 24       // slice header in the []graph.Path array
		nodeBytes       = 4        // graph.NodeID
		mapEntryBytes   = 2*8 + 24 // key + value header, ~2x for buckets
	)
	var total int64
	for _, pr := range prs {
		ps := db.Paths(pr.Src, pr.Dst)
		total += 2 * mapEntryBytes
		total += bench.RoundSizeClass(int64(len(ps)) * pathHeaderBytes)
		for _, p := range ps {
			total += bench.RoundSizeClass(int64(len(p)) * nodeBytes)
		}
	}
	return float64(total) / float64(len(prs))
}
