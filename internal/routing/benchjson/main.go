// Command benchjson benchmarks one Choose call per routing mechanism on
// the paper's k=8 candidate sets and writes the results as JSON, so
// `make bench` can track engine cost across commits (BENCH_routing.json
// at the repo root is the committed baseline):
//
//	go run ./internal/routing/benchjson -o BENCH_routing.json
//
// Each mechanism in routing.Mechanisms() plus SP runs over an rEDKSP
// path DB on a 16-switch RRG, every ordered switch pair in rotation
// (warmed outside the timed loop), under a randomized static first-hop
// load.
package main

import (
	"flag"
	"fmt"
	"os"
	"testing"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/xrand"
)

type result struct {
	Mechanism   string  `json:"mechanism"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type report struct {
	bench.Env
	K        int      `json:"k"`
	Switches int      `json:"switches"`
	Selector string   `json:"selector"`
	Results  []result `json:"results"`
}

// staticLoad is the benchmark's LoadEstimator: first-hop occupancy times
// hop count, the estimate both simulators feed the engine.
type staticLoad struct {
	g   *graph.Graph
	occ []int32
}

func (e *staticLoad) PathCost(p graph.Path) int {
	h := p.Hops()
	if h <= 0 {
		return 0
	}
	return int(e.occ[e.g.LinkID(p[0], p[1])]) * h
}

var sink graph.Path

func main() {
	out := flag.String("o", "BENCH_routing.json", "output file (- = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	const k = 8
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		return err
	}
	g := topo.G
	db := paths.NewDB(g, ksp.Config{Alg: ksp.REDKSP, K: k}, 1)
	view := routing.View{Provider: db, NumNodes: g.NumNodes(), MaxHops: 12}

	occ := make([]int32, g.NumDirectedLinks())
	load := xrand.New(3)
	for i := range occ {
		occ[i] = int32(load.IntN(50))
	}
	est := &staticLoad{g: g, occ: occ}

	var pairs [][2]graph.NodeID
	for s := 0; s < g.NumNodes(); s++ {
		for d := 0; d < g.NumNodes(); d++ {
			if s != d {
				pairs = append(pairs, [2]graph.NodeID{graph.NodeID(s), graph.NodeID(d)})
				db.Paths(graph.NodeID(s), graph.NodeID(d))
			}
		}
	}

	rep := report{Env: bench.Stamp(), K: k, Switches: g.NumNodes(), Selector: "rEDKSP"}
	for _, m := range append(routing.Mechanisms(), routing.SP()) {
		st := m.NewState()
		rng := xrand.New(1)
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr := pairs[i%len(pairs)]
				sink, _ = st.Choose(&view, pr[0], pr[1], est, rng)
			}
		})
		rep.Results = append(rep.Results, result{
			Mechanism:   m.Name(),
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		})
		fmt.Printf("%-14s %10.1f ns/op %6d B/op %4d allocs/op\n",
			m.Name(), float64(r.T.Nanoseconds())/float64(r.N), r.AllocedBytesPerOp(), r.AllocsPerOp())
	}

	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}
