package graph

import (
	"testing"

	"repro/internal/xrand"
)

func TestShortestPathLine(t *testing.T) {
	g := line(6)
	e := NewSPEngine(g, TieDeterministic, nil)
	p, ok := e.ShortestPath(0, 5)
	if !ok || p.Hops() != 5 {
		t.Fatalf("path = %v ok=%v", p, ok)
	}
	if !p.Equal(Path{0, 1, 2, 3, 4, 5}) {
		t.Fatalf("unexpected path %v", p)
	}
}

func TestShortestPathSelf(t *testing.T) {
	e := NewSPEngine(line(3), TieDeterministic, nil)
	p, ok := e.ShortestPath(2, 2)
	if !ok || !p.Equal(Path{2}) {
		t.Fatalf("self path = %v ok=%v", p, ok)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieDeterministic, nil)
	if _, ok := e.ShortestPath(0, 3); ok {
		t.Fatal("found a path between components")
	}
}

func TestDeterministicTieBreakPrefersSmallIDs(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3 are both shortest; deterministic mode must
	// choose the path through node 1 every time.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieDeterministic, nil)
	for i := 0; i < 20; i++ {
		p, ok := e.ShortestPath(0, 3)
		if !ok || !p.Equal(Path{0, 1, 3}) {
			t.Fatalf("deterministic tie-break picked %v", p)
		}
	}
}

func TestRandomTieBreakCoversAlternatives(t *testing.T) {
	// Same diamond: random mode must eventually use both middles.
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	b.AddEdge(1, 3)
	b.AddEdge(2, 3)
	e := NewSPEngine(b.Graph(), TieRandom, xrand.New(1))
	seen := map[NodeID]int{}
	for i := 0; i < 400; i++ {
		p, ok := e.ShortestPath(0, 3)
		if !ok || p.Hops() != 2 {
			t.Fatalf("bad path %v", p)
		}
		seen[p[1]]++
	}
	if seen[1] < 100 || seen[2] < 100 {
		t.Fatalf("tie-break badly skewed: %v", seen)
	}
}

func TestRandomTieBreakSameLengthAsDeterministic(t *testing.T) {
	g := randomGraph(xrand.New(77), 60, 0.08)
	det := NewSPEngine(g, TieDeterministic, nil)
	rnd := NewSPEngine(g, TieRandom, xrand.New(3))
	for s := NodeID(0); s < 60; s += 7 {
		for d := NodeID(0); d < 60; d += 5 {
			pd, okd := det.ShortestPath(s, d)
			pr, okr := rnd.ShortestPath(s, d)
			if okd != okr {
				t.Fatalf("reachability differs for %d->%d", s, d)
			}
			if okd && pd.Hops() != pr.Hops() {
				t.Fatalf("length differs for %d->%d: %d vs %d", s, d, pd.Hops(), pr.Hops())
			}
			if okr && (!pr.ValidIn(g) || !pr.Loopless()) {
				t.Fatalf("random path invalid: %v", pr)
			}
		}
	}
}

func TestNodeBans(t *testing.T) {
	// Cycle of 6: banning node 1 forces the long way around from 0 to 2.
	e := NewSPEngine(cycle(6), TieDeterministic, nil)
	e.BanNode(1)
	p, ok := e.ShortestPath(0, 2)
	if !ok || p.Hops() != 4 {
		t.Fatalf("banned search returned %v", p)
	}
	e.ClearBans()
	p, ok = e.ShortestPath(0, 2)
	if !ok || p.Hops() != 2 {
		t.Fatalf("bans did not clear: %v", p)
	}
}

func TestBannedEndpointsFail(t *testing.T) {
	e := NewSPEngine(line(3), TieDeterministic, nil)
	e.BanNode(0)
	if _, ok := e.ShortestPath(0, 2); ok {
		t.Fatal("search from banned source succeeded")
	}
	e.ClearBans()
	e.BanNode(2)
	if _, ok := e.ShortestPath(0, 2); ok {
		t.Fatal("search to banned destination succeeded")
	}
}

func TestDirectedEdgeBans(t *testing.T) {
	e := NewSPEngine(cycle(4), TieDeterministic, nil)
	e.BanDirectedEdge(0, 1)
	p, ok := e.ShortestPath(0, 1)
	if !ok || p.Hops() != 3 {
		t.Fatalf("directed ban ignored: %v", p)
	}
	// The reverse direction must still work.
	p, ok = e.ShortestPath(1, 0)
	if !ok || p.Hops() != 1 {
		t.Fatalf("reverse direction banned too: %v", p)
	}
}

func TestUndirectedEdgeBans(t *testing.T) {
	e := NewSPEngine(cycle(4), TieDeterministic, nil)
	e.BanUndirectedEdge(0, 1)
	if p, _ := e.ShortestPath(1, 0); p.Hops() != 3 {
		t.Fatalf("undirected ban not applied both ways: %v", p)
	}
}

func TestEngineReuseManyQueries(t *testing.T) {
	g := randomGraph(xrand.New(10), 50, 0.1)
	e := NewSPEngine(g, TieDeterministic, nil)
	ref := NewSPEngine(g, TieDeterministic, nil)
	// Interleave banned and unbanned queries; results of unbanned queries
	// must match a fresh engine every time.
	for i := 0; i < 200; i++ {
		s, d := NodeID(i%50), NodeID((i*7+3)%50)
		if i%3 == 0 {
			e.BanNode(NodeID((i * 11) % 50))
			e.ShortestPath(s, d)
			e.ClearBans()
		}
		p1, ok1 := e.ShortestPath(s, d)
		p2, ok2 := ref.ShortestPath(s, d)
		if ok1 != ok2 || (ok1 && !p1.Equal(p2)) {
			t.Fatalf("engine state leaked at query %d: %v vs %v", i, p1, p2)
		}
	}
}

func TestAllDistancesFrom(t *testing.T) {
	g := cycle(8)
	e := NewSPEngine(g, TieDeterministic, nil)
	dist := make([]int32, 8)
	e.AllDistancesFrom(0, dist)
	want := []int32{0, 1, 2, 3, 4, 3, 2, 1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("dist = %v, want %v", dist, want)
		}
	}
}

func TestAllDistancesRespectBans(t *testing.T) {
	g := line(5)
	e := NewSPEngine(g, TieDeterministic, nil)
	e.BanNode(2)
	dist := make([]int32, 5)
	e.AllDistancesFrom(0, dist)
	if dist[1] != 1 || dist[3] != -1 || dist[4] != -1 {
		t.Fatalf("banned distances wrong: %v", dist)
	}
}

func TestBFSMatchesDijkstraOnUnitWeights(t *testing.T) {
	g := randomGraph(xrand.New(99), 80, 0.06)
	e := NewSPEngine(g, TieDeterministic, nil)
	for s := NodeID(0); s < 80; s += 11 {
		for d := NodeID(0); d < 80; d += 13 {
			pb, okb := e.ShortestPath(s, d)
			pd, cost, okd := Dijkstra(g, s, d, UnitWeights, TieDeterministic, nil)
			if okb != okd {
				t.Fatalf("reachability mismatch %d->%d", s, d)
			}
			if okb {
				if pb.Hops() != pd.Hops() || float64(pb.Hops()) != cost {
					t.Fatalf("length mismatch %d->%d: bfs %d dijkstra %d cost %v",
						s, d, pb.Hops(), pd.Hops(), cost)
				}
			}
		}
	}
}

func TestDijkstraWeighted(t *testing.T) {
	// Triangle with a heavy direct edge: 0-2 costs 10, 0-1-2 costs 2.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	g := b.Graph()
	w := func(u, v NodeID) float64 {
		if (u == 0 && v == 2) || (u == 2 && v == 0) {
			return 10
		}
		return 1
	}
	p, cost, ok := Dijkstra(g, 0, 2, w, TieDeterministic, nil)
	if !ok || cost != 2 || !p.Equal(Path{0, 1, 2}) {
		t.Fatalf("weighted dijkstra = %v cost %v", p, cost)
	}
}

func TestDijkstraRandomTiesValid(t *testing.T) {
	g := randomGraph(xrand.New(12), 40, 0.15)
	rng := xrand.New(4)
	for i := 0; i < 50; i++ {
		s, d := NodeID(rng.IntN(40)), NodeID(rng.IntN(40))
		p, cost, ok := Dijkstra(g, s, d, UnitWeights, TieRandom, rng)
		if !ok {
			continue
		}
		if !p.ValidIn(g) || !p.Loopless() || float64(p.Hops()) != cost {
			t.Fatalf("random dijkstra invalid: %v cost %v", p, cost)
		}
	}
}

func TestComputeMetricsCycle(t *testing.T) {
	m := ComputeMetrics(cycle(8), 2)
	if !m.Connected || m.Diameter != 4 {
		t.Fatalf("metrics = %+v", m)
	}
	// Ring of 8: distances from any node are 1,2,3,4,3,2,1 → mean 16/7.
	want := 16.0 / 7.0
	if diff := m.AvgShortestPath - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("avg = %v, want %v", m.AvgShortestPath, want)
	}
}

func TestComputeMetricsDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	m := ComputeMetrics(b.Graph(), 0)
	if m.Connected {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestComputeMetricsComplete(t *testing.T) {
	m := ComputeMetrics(complete(10), 4)
	if !m.Connected || m.Diameter != 1 || m.AvgShortestPath != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestEngineGraphAccessor(t *testing.T) {
	g := line(3)
	e := NewSPEngine(g, TieDeterministic, nil)
	if e.Graph() != g {
		t.Fatal("Graph accessor wrong")
	}
}

func TestEngineDistance(t *testing.T) {
	e := NewSPEngine(cycle(8), TieDeterministic, nil)
	if d := e.Distance(0, 4); d != 4 {
		t.Fatalf("Distance = %d, want 4", d)
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	e2 := NewSPEngine(b.Graph(), TieDeterministic, nil)
	if d := e2.Distance(0, 3); d != -1 {
		t.Fatalf("unreachable Distance = %d, want -1", d)
	}
}

// TestLinkBansMatchFilteredBFS drives many ban epochs of random directed
// link, undirected link and node bans (non-edges included, which must be
// no-ops) on random graphs. In every epoch ShortestPath must find a path
// that avoids every ban and is exactly as short as a plain BFS over a
// clone of the graph with the banned edges and nodes removed; after
// ClearBans, no ban may survive.
func TestLinkBansMatchFilteredBFS(t *testing.T) {
	rng := xrand.New(2024)
	for trial := 0; trial < 6; trial++ {
		n := 20 + rng.IntN(30)
		g := randomGraph(rng, n, 0.08+0.1*rng.Float64())
		det := NewSPEngine(g, TieDeterministic, nil)
		rnd := NewSPEngine(g, TieRandom, xrand.New(uint64(trial)))
		unbanned := filteredDist(g.Clone().Graph(), nil)
		for epoch := 0; epoch < 40; epoch++ {
			b := g.Clone()
			dirBan := map[[2]NodeID]bool{}
			nodeBan := map[NodeID]bool{}
			for i := rng.IntN(3 * n); i > 0; i-- {
				u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
				if u == v {
					continue
				}
				switch rng.IntN(5) {
				case 0, 1:
					for _, e := range []*SPEngine{det, rnd} {
						e.BanDirectedEdge(u, v)
					}
					if g.HasEdge(u, v) {
						dirBan[[2]NodeID{u, v}] = true
					}
				case 2, 3:
					for _, e := range []*SPEngine{det, rnd} {
						e.BanUndirectedEdge(u, v)
					}
					b.RemoveEdge(u, v)
				default:
					for _, e := range []*SPEngine{det, rnd} {
						e.BanNode(u)
					}
					nodeBan[u] = true
				}
			}
			for u := range nodeBan {
				for _, v := range g.Neighbors(u) {
					b.RemoveEdge(u, v)
				}
			}
			want := filteredDist(b.Graph(), dirBan)
			for s := NodeID(0); int(s) < n; s++ {
				for d := NodeID(0); int(d) < n; d++ {
					if s == d {
						continue
					}
					w := want[s][d]
					if nodeBan[s] || nodeBan[d] {
						w = -1
					}
					for _, e := range []*SPEngine{det, rnd} {
						p, ok := e.ShortestPath(s, d)
						if got := pathHops(p, ok); got != w {
							t.Fatalf("trial %d epoch %d %d->%d: %d hops, filtered BFS %d", trial, epoch, s, d, got, w)
						}
						for i := 0; ok && i+1 < len(p); i++ {
							if !b.HasEdge(p[i], p[i+1]) || dirBan[[2]NodeID{p[i], p[i+1]}] {
								t.Fatalf("path %v crosses banned link %d-%d", p, p[i], p[i+1])
							}
						}
					}
				}
			}
			det.ClearBans()
			rnd.ClearBans()
			for i := 0; i < 3*n; i++ {
				s, d := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
				if s == d {
					continue
				}
				for _, e := range []*SPEngine{det, rnd} {
					p, ok := e.ShortestPath(s, d)
					if got := pathHops(p, ok); got != unbanned[s][d] {
						t.Fatalf("ban survived ClearBans: %d->%d %d hops, want %d", s, d, got, unbanned[s][d])
					}
				}
			}
		}
	}
}

// TestClearBansEpochWrap: when the ban epoch counter wraps, neither the
// zero stamps of never-banned nodes and links nor stamps left from before
// the wrap may read as bans.
func TestClearBansEpochWrap(t *testing.T) {
	e := NewSPEngine(cycle(4), TieDeterministic, nil)
	e.banCur = ^uint32(0)
	e.BanUndirectedEdge(0, 1)
	e.BanNode(2)
	e.ClearBans()
	for s := NodeID(0); s < 4; s++ {
		if e.NodeBanned(s) {
			t.Fatalf("node %d still banned after wrap", s)
		}
	}
	if p, ok := e.ShortestPath(0, 1); !ok || p.Hops() != 1 {
		t.Fatalf("link ban survived the wrap: %v", p)
	}
}

func pathHops(p Path, ok bool) int {
	if !ok {
		return -1
	}
	return p.Hops()
}

// filteredDist is the reference: all-pairs BFS hop counts over h, never
// traversing a directed pair in dirBan (-1 when unreachable).
func filteredDist(h *Graph, dirBan map[[2]NodeID]bool) [][]int {
	n := h.NumNodes()
	dist := make([][]int, n)
	for s := range dist {
		d := make([]int, n)
		for i := range d {
			d[i] = -1
		}
		d[s] = 0
		queue := []NodeID{NodeID(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range h.Neighbors(u) {
				if d[v] < 0 && !dirBan[[2]NodeID{u, v}] {
					d[v] = d[u] + 1
					queue = append(queue, v)
				}
			}
		}
		dist[s] = d
	}
	return dist
}
