package graph

import (
	"repro/internal/xrand"
)

// TieBreak selects how a shortest-path search chooses among equally short
// alternatives. This is the knob behind the paper's KSP-vs-rKSP distinction.
type TieBreak int

const (
	// TieDeterministic reproduces the textbook bias the paper analyses:
	// nodes are explored in ascending id order, and a node keeps the first
	// (smallest-id) predecessor that discovers it. Repeated searches return
	// the identical path.
	TieDeterministic TieBreak = iota
	// TieRandom explores each frontier in random order and picks a
	// predecessor uniformly among all equal-distance discoverers via
	// reservoir sampling, so equally short paths are sampled without the
	// node-id bias.
	TieRandom
)

// SPEngine runs repeated single-pair shortest-path searches on one graph
// with O(1) amortized reset cost. It supports banning nodes and (directed
// or undirected) edges, which is how Yen's algorithm and the Remove-Find
// method express their temporary graph modifications without copying the
// graph. Node and link bans are both epoch stamps, indexed by node id and
// by CSR link id, so ClearBans is a single counter bump.
//
// An SPEngine is not safe for concurrent use; parallel workers each create
// their own engine over the shared immutable Graph.
type SPEngine struct {
	g   *Graph
	tie TieBreak
	rng *xrand.RNG

	dist      []int32
	parent    []NodeID
	parentCnt []int32
	seenEpoch []uint32
	epoch     uint32

	banEpoch []uint32 // per node
	linkBan  []uint32 // per directed link id
	banCur   uint32

	frontier, next []NodeID
}

// NewSPEngine returns an engine over g. rng is required for TieRandom and
// ignored for TieDeterministic.
func NewSPEngine(g *Graph, tie TieBreak, rng *xrand.RNG) *SPEngine {
	if tie == TieRandom && rng == nil {
		panic("graph: TieRandom requires an RNG")
	}
	n := g.NumNodes()
	return &SPEngine{
		g:         g,
		tie:       tie,
		rng:       rng,
		dist:      make([]int32, n),
		parent:    make([]NodeID, n),
		parentCnt: make([]int32, n),
		seenEpoch: make([]uint32, n),
		banEpoch:  make([]uint32, n),
		linkBan:   make([]uint32, g.NumDirectedLinks()),
		banCur:    1,
	}
}

// Graph returns the graph the engine searches.
func (e *SPEngine) Graph() *Graph { return e.g }

// BanNode excludes u from subsequent searches until ClearBans.
func (e *SPEngine) BanNode(u NodeID) { e.banEpoch[u] = e.banCur }

// NodeBanned reports whether u is currently banned.
func (e *SPEngine) NodeBanned(u NodeID) bool { return e.banEpoch[u] == e.banCur }

// BanDirectedEdge excludes traversals u→v (but not v→u) until ClearBans.
// Banning a non-edge is a no-op.
func (e *SPEngine) BanDirectedEdge(u, v NodeID) {
	if l := e.g.LinkID(u, v); l >= 0 {
		e.linkBan[l] = e.banCur
	}
}

// BanUndirectedEdge excludes the edge {u, v} in both directions until
// ClearBans. Banning a non-edge is a no-op.
func (e *SPEngine) BanUndirectedEdge(u, v NodeID) {
	if l := e.g.LinkID(u, v); l >= 0 {
		e.linkBan[l] = e.banCur
		e.linkBan[e.g.rev[l]] = e.banCur
	}
}

// ClearBans removes all node and link bans in O(1). When the epoch
// counter wraps, the stamps are zeroed so no stale stamp can match.
func (e *SPEngine) ClearBans() {
	e.banCur++
	if e.banCur == 0 {
		clear(e.banEpoch)
		clear(e.linkBan)
		e.banCur = 1
	}
}

// ShortestPath returns a shortest src→dst path respecting current bans, and
// whether one exists. With TieDeterministic the same arguments always yield
// the same path; with TieRandom ties are broken randomly.
//
// A banned src or dst makes the search fail, except that searches from a
// banned src are still permitted when src == dst is not involved — Yen's
// algorithm never needs that case, so we keep the simple rule: bans win.
func (e *SPEngine) ShortestPath(src, dst NodeID) (Path, bool) {
	if e.NodeBanned(src) || e.NodeBanned(dst) {
		return nil, false
	}
	if src == dst {
		return Path{src}, true
	}
	e.epoch++
	e.seenEpoch[src] = e.epoch
	e.dist[src] = 0
	e.parent[src] = -1
	e.frontier = append(e.frontier[:0], src)

	for level := int32(0); len(e.frontier) > 0; level++ {
		if e.tie == TieRandom {
			xrand.ShuffleSlice(e.rng, e.frontier)
		}
		e.next = e.next[:0]
		for _, u := range e.frontier {
			for l := e.g.start[u]; l < e.g.start[u+1]; l++ {
				v := e.g.nbr[l]
				if e.banEpoch[v] == e.banCur || e.linkBan[l] == e.banCur {
					continue
				}
				if e.seenEpoch[v] != e.epoch {
					e.seenEpoch[v] = e.epoch
					e.dist[v] = level + 1
					e.parent[v] = u
					e.parentCnt[v] = 1
					e.next = append(e.next, v)
				} else if e.tie == TieRandom && e.dist[v] == level+1 {
					// Reservoir-sample a uniform predecessor among all
					// equal-distance discoverers.
					e.parentCnt[v]++
					if e.rng.IntN(int(e.parentCnt[v])) == 0 {
						e.parent[v] = u
					}
				}
			}
		}
		if e.seenEpoch[dst] == e.epoch {
			// dst was discovered in the level just expanded; all its
			// potential predecessors have voted, so the parent choice is
			// final.
			return e.extract(src, dst), true
		}
		e.frontier, e.next = e.next, e.frontier
	}
	return nil, false
}

// Distance returns the banned-aware shortest distance src→dst in hops, or
// -1 if unreachable.
func (e *SPEngine) Distance(src, dst NodeID) int32 {
	p, ok := e.ShortestPath(src, dst)
	if !ok {
		return -1
	}
	return int32(p.Hops())
}

func (e *SPEngine) extract(src, dst NodeID) Path {
	n := int(e.dist[dst]) + 1
	p := make(Path, n)
	u := dst
	for i := n - 1; i >= 0; i-- {
		p[i] = u
		u = e.parent[u]
	}
	if p[0] != src {
		panic("graph: path extraction lost the source")
	}
	return p
}

// AllDistancesFrom fills dist with hop distances from src to every node,
// using -1 for unreachable nodes. Node bans are respected; link bans are
// not (the all-pairs metrics that call it ban nothing, and a per-link check
// would tax their inner loop). dist must have length NumNodes.
func (e *SPEngine) AllDistancesFrom(src NodeID, dist []int32) {
	if len(dist) != e.g.NumNodes() {
		panic("graph: dist slice has wrong length")
	}
	for i := range dist {
		dist[i] = -1
	}
	if e.NodeBanned(src) {
		return
	}
	e.epoch++
	e.seenEpoch[src] = e.epoch
	dist[src] = 0
	e.frontier = append(e.frontier[:0], src)
	for level := int32(0); len(e.frontier) > 0; level++ {
		e.next = e.next[:0]
		for _, u := range e.frontier {
			for _, v := range e.g.nbr[e.g.start[u]:e.g.start[u+1]] {
				// Seen first: past the first levels most neighbors are
				// already seen, so the ban load is usually skipped.
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
