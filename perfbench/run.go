package main

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/paths"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// scale sizes every workload. fullScale is what the benchmark runs;
// the tests run a tiny one.
type scale struct {
	name string
	// topo is fig8-ugal's topology, simTopo the one fig7-adaptive and
	// table5-app simulate on.
	topo, simTopo jellyfish.Params
	k             int

	// fig7-adaptive: each of the four jobs runs warmup +
	// samples×sampleCycles cycles.
	adaptiveLoads                 []float64
	warmup, sampleCycles, samples int
	// fig8-ugal: cycles per round, each round on a fresh lazy DB.
	ugalLoad   float64
	ugalCycles int
	// table5-app: stencil bytes sent by each rank.
	bytesPerRank int64
	// serve-mixed: the served topology, pairs per routes-batch, batches
	// and JSON route calls per round, and generated sweep pairs.
	serveTopo  serve.TopoParams
	batchPairs int
	batches    int
	routes     int
	sweepPairs int
}

var fullScale = scale{
	name:          "full",
	topo:          jellyfish.Medium,
	simTopo:       jellyfish.Small,
	k:             8,
	adaptiveLoads: []float64{0.3, 0.6},
	warmup:        1000,
	sampleCycles:  1000,
	samples:       2,
	ugalLoad:      0.3,
	ugalCycles:    2,
	bytesPerRank:  traffic.DefaultTotalBytes,
	serveTopo:     serve.TopoParams{Topo: "small"},
	batchPairs:    512,
	batches:       1500,
	routes:        15000,
	sweepPairs:    1 << 17,
}

// runEnv is what a workload's setup sees.
type runEnv struct {
	sc      scale
	seed    uint64
	seconds float64
	workdir string
}

// roundStats reports one round of measured work. ns covers only the
// work itself; a round's checks run outside it.
type roundStats struct {
	ns                int64
	attempted, failed int64
}

// instanceSeq numbers the instances a process sets up: a run keeps one
// live while it times further setups, and their cache files and sockets
// must not collide.
var instanceSeq atomic.Int64

// instance is one set-up workload.
type instance interface {
	// round runs one unit of the measured work. tr and lc are nil in
	// untraced runs.
	round(c *checker, tr *tracer, lc *layerCounts) (roundStats, error)
	// finish checks the outputs of the rounds run so far and returns
	// their digests.
	finish(c *checker) (digests, error)
	// layerMetrics adds the per-layer figures only the workload knows.
	layerMetrics(m map[string]float64) error
	close()
}

type workload struct {
	name  string
	setup func(env *runEnv, tr *tracer) (instance, error)
}

// workloads lists the workloads in BENCHMARK.json's order; the package
// documentation says why each exists.
var workloads = []workload{
	{"fig7-adaptive", setupFig7Adaptive},
	{"fig8-ugal", setupFig8UGAL},
	{"table5-app", setupTable5},
	{"serve-mixed", setupServe},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// buildTopo builds the seed's RRG instance, the same one the experiment
// binaries build for -seed, and returns the VC count the Fig 7-10
// experiments give it (3·diameter+2).
func buildTopo(p jellyfish.Params, seed uint64, tr *tracer) (*jellyfish.Topology, graph.Metrics, error) {
	sp := tr.begin("jellyfish.new")
	topo, err := jellyfish.New(p, seeds.TopoRNG(seed, 0))
	tr.end(sp)
	if err != nil {
		return nil, graph.Metrics{}, fmt.Errorf("build %s: %w", p, err)
	}
	sp = tr.begin("graph.metrics")
	m := graph.ComputeMetrics(topo.G, 0)
	tr.end(sp)
	if !m.Connected {
		return nil, m, fmt.Errorf("%s instance for seed %d is disconnected", p, seed)
	}
	return topo, m, nil
}

// patternRNG derives the first traffic instance of the first topology
// sample, as the experiment harness does for -seed.
func patternRNG(seed uint64) *xrand.RNG {
	return xrand.NewPair(xrand.Mix64(seed^0x706174), 0)
}

// switchPairs lists the distinct switch pairs (src != dst) of a
// terminal-level flow list, in first-seen order.
func switchPairs[F any](topo *jellyfish.Topology, flows []F, ends func(F) (int, int)) []paths.Pair {
	seen := make(map[paths.Pair]bool)
	var out []paths.Pair
	for _, f := range flows {
		s, d := ends(f)
		k := paths.Pair{Src: topo.SwitchOf(s), Dst: topo.SwitchOf(d)}
		if k.Src == k.Dst || seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
	}
	return out
}

// permutationFlowEnds and sizedFlowEnds adapt the two flow types.
func permutationFlowEnds(f traffic.Flow) (int, int) { return f.Src, f.Dst }
func sizedFlowEnds(f traffic.SizedFlow) (int, int)  { return f.Src, f.Dst }

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// safeDiv returns a/b, or 0 when b is 0 (a layer the workload does not
// use).
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
