// Command benchjson benchmarks the CSR-packed graph core on the paper's
// medium topology and the 10k-scale-track RRG(2000,24,19), writing the
// results as JSON so `make bench` can track the substrate across commits
// (BENCH_graph.json at the repo root is the committed baseline):
//
//	go run ./internal/graph/benchjson -o BENCH_graph.json
//
// Four quantities matter:
//
//   - build time: NewBuilder + AddEdge over the full edge list + Graph(),
//     for the sorted-slice builder versus the per-node-map builder it
//     replaced (replicated here as the baseline);
//   - bytes/node: exact resident size of the packed graph versus the
//     modeled footprint of the representation it replaced. The baseline is
//     what the old stack had to keep resident for the same O(1) link-id
//     service: the per-node slice adjacency (headers + size-class-rounded
//     backings + start array) PLUS flitsim's dense n² (u,v)→link table,
//     which the old code allocated for every topology up to its 16 MB gate
//     (both benchmarked topologies are under it; past ~2048 switches the
//     old stack had no O(1) path at all — that cliff is what this PR
//     removes). slice_graph_bytes_per_node reports the graph-only slice
//     footprint separately so both comparisons stay visible;
//   - BFS all-pairs rate: sources/sec of a full all-pairs sweep on the
//     packed arena versus an identical BFS over a materialized [][]NodeID
//     adjacency (the acceptance bar: no regression);
//   - link-op throughput: LinkID (binary search both before and after —
//     the arena just drops the header chase) and LinkEndpoints (old:
//     binary search of the start array; new: O(1) owner-table load).
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/bench"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/xrand"
)

type topoReport struct {
	Topology string `json:"topology"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`

	BuildSeconds    float64 `json:"build_seconds"`
	MapBuildSeconds float64 `json:"map_build_seconds"`
	BuildSpeedup    float64 `json:"build_speedup"`

	PackedBytesPerNode     float64 `json:"packed_bytes_per_node"`
	SliceGraphBytesPerNode float64 `json:"slice_graph_bytes_per_node"`
	DenseTableBytesPerNode float64 `json:"dense_table_bytes_per_node"`
	SliceBytesPerNode      float64 `json:"slice_bytes_per_node"`
	PackedFraction         float64 `json:"packed_fraction"`

	BFSAllPairsSourcesPerSec      float64 `json:"bfs_allpairs_sources_per_sec"`
	SliceBFSAllPairsSourcesPerSec float64 `json:"slice_bfs_allpairs_sources_per_sec"`
	BFSSpeedup                    float64 `json:"bfs_speedup"`

	LinkIDMops           float64 `json:"linkid_mops"`
	SliceLinkIDMops      float64 `json:"slice_linkid_mops"`
	LinkEndpointsMops    float64 `json:"linkendpoints_mops"`
	SliceEndpointsMops   float64 `json:"slice_linkendpoints_mops"`
	LinkEndpointsSpeedup float64 `json:"linkendpoints_speedup"`
}

type report struct {
	bench.Env
	Topologies []topoReport `json:"topologies"`
}

// reps is the repetitions per measurement; the fastest is kept.
const reps = 3

func main() {
	out := flag.String("o", "BENCH_graph.json", "output file (- = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string) error {
	cases := []struct {
		p    jellyfish.Params
		seed uint64
	}{
		{jellyfish.Medium, 1},                        // RRG(720,24,19)
		{jellyfish.Params{N: 2000, X: 24, Y: 19}, 1}, // past the old dense-table comfort zone
	}
	rep := report{Env: bench.Stamp()}
	for _, c := range cases {
		r, err := benchTopology(c.p, c.seed)
		if err != nil {
			return err
		}
		rep.Topologies = append(rep.Topologies, r)
	}
	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

func benchTopology(p jellyfish.Params, seed uint64) (topoReport, error) {
	topo, err := jellyfish.New(p, xrand.New(seed))
	if err != nil {
		return topoReport{}, err
	}
	g := topo.G
	n := g.NumNodes()
	var edges [][2]graph.NodeID
	for u, v := range g.Edges() {
		edges = append(edges, [2]graph.NodeID{u, v})
	}
	r := topoReport{Topology: p.String(), Nodes: n, Edges: len(edges)}

	// Build time: sorted-slice builder vs the map builder it replaced.
	r.BuildSeconds = bench.Best(reps, nil, func() {
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		sink(b.Graph().NumEdges())
	})
	r.MapBuildSeconds = bench.Best(reps, nil, func() {
		b := newMapBuilder(n)
		for _, e := range edges {
			b.addEdge(e[0], e[1])
		}
		sink(b.graph().m)
	})
	r.BuildSpeedup = r.MapBuildSeconds / r.BuildSeconds

	// Footprints. Packed is exact; the slice baseline is modeled from the
	// allocations that representation performed, size-class rounded the
	// way the runtime rounds them (deterministic, no GC wobble).
	r.PackedBytesPerNode = float64(g.FootprintBytes()) / float64(n)
	var sliceBytes int64 = bench.RoundSizeClass(int64((n + 1) * 4)) // start array
	sliceBytes += bench.RoundSizeClass(int64(n * 24))               // outer slice headers
	for u := 0; u < n; u++ {
		sliceBytes += bench.RoundSizeClass(int64(4 * g.Degree(graph.NodeID(u))))
	}
	r.SliceGraphBytesPerNode = float64(sliceBytes) / float64(n)
	if int64(n)*int64(n) <= 4<<20 {
		r.DenseTableBytesPerNode = float64(4 * n) // n² int32 entries over n nodes
	}
	r.SliceBytesPerNode = r.SliceGraphBytesPerNode + r.DenseTableBytesPerNode
	r.PackedFraction = r.PackedBytesPerNode / r.SliceBytesPerNode

	// Reference slice adjacency for the old-representation legs.
	ref := newSliceRep(g)

	// BFS all-pairs: every source, packed arena vs slice adjacency.
	eng := graph.NewSPEngine(g, graph.TieDeterministic, nil)
	seng := newSliceEngine(ref)
	dist := make([]int32, n)
	packedSec := bench.Best(reps, nil, func() {
		for s := 0; s < n; s++ {
			eng.AllDistancesFrom(graph.NodeID(s), dist)
		}
		sink(int(dist[n-1]))
	})
	sliceSec := bench.Best(reps, nil, func() {
		for s := 0; s < n; s++ {
			seng.allDistancesFrom(graph.NodeID(s), dist)
		}
		sink(int(dist[n-1]))
	})
	r.BFSAllPairsSourcesPerSec = float64(n) / packedSec
	r.SliceBFSAllPairsSourcesPerSec = float64(n) / sliceSec
	r.BFSSpeedup = sliceSec / packedSec

	// Link-op throughput over a shuffled probe set of real links.
	probes := make([]int32, g.NumDirectedLinks())
	for i := range probes {
		probes[i] = int32(i)
	}
	xrand.ShuffleSlice(xrand.New(3), probes)
	pairs := make([][2]graph.NodeID, len(probes))
	for i, l := range probes {
		u, v := g.LinkEndpoints(l)
		pairs[i] = [2]graph.NodeID{u, v}
	}
	const passes = 20
	r.LinkIDMops = mops(passes, len(pairs), bench.Best(reps, nil, func() {
		acc := int32(0)
		for pass := 0; pass < passes; pass++ {
			for _, pr := range pairs {
				acc ^= g.LinkID(pr[0], pr[1])
			}
		}
		sink(int(acc))
	}))
	r.SliceLinkIDMops = mops(passes, len(pairs), bench.Best(reps, nil, func() {
		acc := int32(0)
		for pass := 0; pass < passes; pass++ {
			for _, pr := range pairs {
				acc ^= ref.linkID(pr[0], pr[1])
			}
		}
		sink(int(acc))
	}))
	r.LinkEndpointsMops = mops(passes, len(probes), bench.Best(reps, nil, func() {
		acc := graph.NodeID(0)
		for pass := 0; pass < passes; pass++ {
			for _, l := range probes {
				u, v := g.LinkEndpoints(l)
				acc ^= u ^ v
			}
		}
		sink(int(acc))
	}))
	r.SliceEndpointsMops = mops(passes, len(probes), bench.Best(reps, nil, func() {
		acc := graph.NodeID(0)
		for pass := 0; pass < passes; pass++ {
			for _, l := range probes {
				u, v := ref.linkEndpoints(l)
				acc ^= u ^ v
			}
		}
		sink(int(acc))
	}))
	r.LinkEndpointsSpeedup = r.LinkEndpointsMops / r.SliceEndpointsMops

	fmt.Printf("%s: build %.1fx vs map builder; %.0f B/node packed vs %.0f B/node slice+dense (%.0f%%); "+
		"BFS %.0f src/s (slice %.0f, %.2fx); LinkEndpoints %.0f Mops (slice %.0f, %.1fx)\n",
		r.Topology, r.BuildSpeedup, r.PackedBytesPerNode, r.SliceBytesPerNode, 100*r.PackedFraction,
		r.BFSAllPairsSourcesPerSec, r.SliceBFSAllPairsSourcesPerSec, r.BFSSpeedup,
		r.LinkEndpointsMops, r.SliceEndpointsMops, r.LinkEndpointsSpeedup)
	return r, nil
}

// sliceRep replicates the pre-CSR representation: per-node slice
// adjacency with binary-search LinkID and start-array-search endpoints.
type sliceRep struct {
	n     int
	adj   [][]graph.NodeID
	start []int32
}

func newSliceRep(g *graph.Graph) *sliceRep {
	n := g.NumNodes()
	r := &sliceRep{n: n, adj: make([][]graph.NodeID, n), start: make([]int32, n+1)}
	pos := int32(0)
	for u := 0; u < n; u++ {
		src := g.Neighbors(graph.NodeID(u))
		lst := make([]graph.NodeID, len(src))
		copy(lst, src)
		r.adj[u] = lst
		r.start[u] = pos
		pos += int32(len(lst))
	}
	r.start[n] = pos
	return r
}

func (r *sliceRep) linkID(u, v graph.NodeID) int32 {
	lst := r.adj[u]
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := (lo + hi) / 2
		if lst[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(lst) && lst[lo] == v {
		return r.start[u] + int32(lo)
	}
	return -1
}

func (r *sliceRep) linkEndpoints(link int32) (u, v graph.NodeID) {
	u = graph.NodeID(sort.Search(r.n, func(i int) bool { return r.start[i+1] > link }))
	v = r.adj[u][link-r.start[u]]
	return u, v
}

// sliceEngine replicates SPEngine.AllDistancesFrom field for field and
// branch for branch — epochs and node-ban checks — with only the
// adjacency access swapped from the arena to per-node slices, so the
// measured delta isolates the representation.
type sliceEngine struct {
	r         *sliceRep
	dist      []int32
	seenEpoch []uint32
	epoch     uint32
	banEpoch  []uint32
	banCur    uint32

	frontier, next []graph.NodeID
}

func newSliceEngine(r *sliceRep) *sliceEngine {
	return &sliceEngine{
		r:         r,
		dist:      make([]int32, r.n),
		seenEpoch: make([]uint32, r.n),
		banEpoch:  make([]uint32, r.n),
		banCur:    1,
	}
}

func (e *sliceEngine) allDistancesFrom(src graph.NodeID, dist []int32) {
	for i := range dist {
		dist[i] = -1
	}
	if e.banEpoch[src] == e.banCur {
		return
	}
	e.epoch++
	e.seenEpoch[src] = e.epoch
	dist[src] = 0
	e.frontier = append(e.frontier[:0], src)
	for level := int32(0); len(e.frontier) > 0; level++ {
		e.next = e.next[:0]
		for _, u := range e.frontier {
			for _, v := range e.r.adj[u] {
				if e.seenEpoch[v] == e.epoch || e.banEpoch[v] == e.banCur {
					continue
				}
				e.seenEpoch[v] = e.epoch
				dist[v] = level + 1
				e.next = append(e.next, v)
			}
		}
		e.frontier, e.next = e.next, e.frontier
	}
}

// mapBuilder replicates the pre-CSR per-node-map Builder for the build
// benchmark.
type mapBuilder struct {
	n   int
	adj []map[graph.NodeID]struct{}
}

type mapGraph struct{ m int }

func newMapBuilder(n int) *mapBuilder {
	adj := make([]map[graph.NodeID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[graph.NodeID]struct{})
	}
	return &mapBuilder{n: n, adj: adj}
}

func (b *mapBuilder) addEdge(u, v graph.NodeID) {
	b.adj[u][v] = struct{}{}
	b.adj[v][u] = struct{}{}
}

func (b *mapBuilder) graph() mapGraph {
	total := 0
	for u := range b.adj {
		lst := make([]graph.NodeID, 0, len(b.adj[u]))
		for v := range b.adj[u] {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		total += len(lst)
	}
	return mapGraph{m: total / 2}
}

func mops(passes, ops int, sec float64) float64 {
	return float64(passes) * float64(ops) / sec / 1e6
}

var sinkVar int

// sink defeats dead-code elimination of benchmark loops.
func sink(v int) { sinkVar += v }
