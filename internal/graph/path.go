package graph

import (
	"fmt"
	"strings"
)

// Path is a node sequence; a valid path has at least one node and each
// consecutive pair is an edge of the graph it was computed on.
type Path []NodeID

// Hops returns the number of edges on the path (len-1), the "path length"
// in the paper's sense. An empty path has -1 hops.
func (p Path) Hops() int { return len(p) - 1 }

// Src returns the first node. It panics on an empty path.
func (p Path) Src() NodeID { return p[0] }

// Dst returns the last node. It panics on an empty path.
func (p Path) Dst() NodeID { return p[len(p)-1] }

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	q := make(Path, len(p))
	copy(q, p)
	return q
}

// Equal reports whether two paths visit exactly the same node sequence.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Loopless reports whether no node repeats on the path.
func (p Path) Loopless() bool {
	seen := make(map[NodeID]struct{}, len(p))
	for _, u := range p {
		if _, dup := seen[u]; dup {
			return false
		}
		seen[u] = struct{}{}
	}
	return true
}

// ValidIn reports whether every consecutive pair of nodes on p is an edge
// of g and p is nonempty.
func (p Path) ValidIn(g *Graph) bool {
	if len(p) == 0 {
		return false
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			return false
		}
	}
	return true
}

// Links appends the directed link IDs traversed by p in g to dst and
// returns the extended slice. It panics if p uses a non-edge.
func (p Path) Links(g *Graph, dst []int32) []int32 {
	for i := 0; i+1 < len(p); i++ {
		id := g.LinkID(p[i], p[i+1])
		if id < 0 {
			panic(fmt.Sprintf("graph: path uses non-edge %d-%d", p[i], p[i+1]))
		}
		dst = append(dst, id)
	}
	return dst
}

// UndirectedEdgeKey packs the undirected edge {u, v} into a 64-bit key with
// min(u,v) in the high word, so (u,v) and (v,u) map to the same key.
func UndirectedEdgeKey(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// String renders the path as "0->5->12".
func (p Path) String() string {
	var sb strings.Builder
	for i, u := range p {
		if i > 0 {
			sb.WriteString("->")
		}
		fmt.Fprintf(&sb, "%d", u)
	}
	return sb.String()
}

// SharedEdges returns the number of undirected edges that appear in both
// paths.
func (p Path) SharedEdges(q Path) int {
	if len(p) < 2 || len(q) < 2 {
		return 0
	}
	set := make(map[uint64]struct{}, len(p))
	for i := 0; i+1 < len(p); i++ {
		set[UndirectedEdgeKey(p[i], p[i+1])] = struct{}{}
	}
	shared := 0
	for i := 0; i+1 < len(q); i++ {
		if _, ok := set[UndirectedEdgeKey(q[i], q[i+1])]; ok {
			shared++
		}
	}
	return shared
}

// EdgeDisjoint reports whether the two paths share no undirected edge.
func (p Path) EdgeDisjoint(q Path) bool { return p.SharedEdges(q) == 0 }
