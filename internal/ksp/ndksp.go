package ksp

import (
	"repro/internal/graph"
)

// Node-disjoint path selection (NDKSP / rNDKSP) extends the paper's
// edge-disjoint heuristic to the stronger property the Remove-Find paper
// (Guo, Kuipers, Van Mieghem) also studies: paths sharing no intermediate
// switch at all. Node-disjointness buys fault isolation — a switch failure
// kills at most one path of the set — at the cost of fewer available paths
// (at most min degree). The IPPS'21 paper evaluates only edge-disjointness;
// this is the natural extension its Section III hints at, provided for
// study.

const (
	// NDKSP is deterministic node-disjoint Remove-Find.
	NDKSP Algorithm = iota + 100
	// RNDKSP is randomized node-disjoint Remove-Find.
	RNDKSP
)

// nodeDisjoint reports whether the algorithm is a node-disjoint variant.
func (a Algorithm) nodeDisjoint() bool { return a == NDKSP || a == RNDKSP }

// removeFindNodes is Remove-Find with node removal: after each shortest
// path is found, its intermediate nodes are banned (endpoints stay), which
// also bans all their edges, guaranteeing internally node-disjoint paths.
// The direct src-dst edge, if it exists, can be used by at most one path
// by edge-banning it after use.
func (c *Computer) removeFindNodes(src, dst graph.NodeID) []graph.Path {
	c.eng.ClearBans()
	out := make([]graph.Path, 0, c.cfg.K)
	for len(out) < c.cfg.K {
		p, ok := c.eng.ShortestPath(src, dst)
		if !ok {
			break
		}
		out = append(out, p)
		if len(p) == 2 {
			// Direct edge: ban just the edge so other paths can still pass
			// through other neighbors.
			c.eng.BanUndirectedEdge(p[0], p[1])
			continue
		}
		for _, u := range p[1 : len(p)-1] {
			c.eng.BanNode(u)
		}
	}
	return c.topUp(src, dst, out)
}
