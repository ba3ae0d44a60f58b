// Package ksp implements the paper's path-selection schemes for multi-path
// routing on Jellyfish:
//
//   - KSP     — vanilla Yen k-shortest loopless paths with deterministic
//     (node-id) tie-breaking, reproducing the bias the paper analyses;
//   - rKSP    — Yen with randomized tie-breaking inside the shortest-path
//     searches and random selection among equally short candidates;
//   - EDKSP   — edge-disjoint paths via the Remove-Find method of Guo,
//     Kuipers and Van Mieghem: find a shortest path, remove its edges,
//     repeat;
//   - rEDKSP  — Remove-Find driven by the randomized shortest-path search,
//     the paper's best performing selector;
//   - LLSKR   — the Limited Length Spread k-shortest Path Routing of Yuan
//     et al. (SC'13), included as the related-work baseline the paper
//     discusses.
//
// All schemes are exposed through Computer, a per-worker object that owns
// reusable search engines so all-pairs computations over hundreds of
// thousands of switch pairs stay allocation-light.
package ksp

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Algorithm identifies a path-selection scheme.
type Algorithm int

const (
	// KSP is vanilla Yen with deterministic tie-breaking.
	KSP Algorithm = iota
	// RKSP is Yen with randomized tie-breaking (the paper's rKSP).
	RKSP
	// EDKSP is deterministic Remove-Find edge-disjoint selection.
	EDKSP
	// REDKSP is randomized Remove-Find (the paper's rEDKSP).
	REDKSP
	// LLSKR is Limited Length Spread k-shortest path routing.
	LLSKR
)

// Algorithms lists the paper's four selectors in presentation order.
var Algorithms = []Algorithm{KSP, RKSP, EDKSP, REDKSP}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case KSP:
		return "KSP"
	case RKSP:
		return "rKSP"
	case EDKSP:
		return "EDKSP"
	case REDKSP:
		return "rEDKSP"
	case LLSKR:
		return "LLSKR"
	case NDKSP:
		return "NDKSP"
	case RNDKSP:
		return "rNDKSP"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// ByName resolves a selector name as used on command lines.
func ByName(name string) (Algorithm, error) {
	switch name {
	case "ksp", "KSP":
		return KSP, nil
	case "rksp", "rKSP":
		return RKSP, nil
	case "edksp", "EDKSP":
		return EDKSP, nil
	case "redksp", "rEDKSP":
		return REDKSP, nil
	case "llskr", "LLSKR":
		return LLSKR, nil
	case "ndksp", "NDKSP":
		return NDKSP, nil
	case "rndksp", "rNDKSP":
		return RNDKSP, nil
	}
	return 0, fmt.Errorf("ksp: unknown algorithm %q", name)
}

// Randomized reports whether the algorithm uses randomized tie-breaking.
func (a Algorithm) Randomized() bool { return a == RKSP || a == REDKSP || a == RNDKSP }

// EdgeDisjoint reports whether the algorithm guarantees edge-disjoint paths
// (up to the disjoint-exhaustion fallback). Node-disjoint paths are a
// fortiori edge-disjoint.
func (a Algorithm) EdgeDisjoint() bool {
	return a == EDKSP || a == REDKSP || a.nodeDisjoint()
}

// Config parameterizes path computation.
type Config struct {
	// Alg selects the scheme.
	Alg Algorithm
	// K is the number of paths per pair (for LLSKR, the maximum).
	K int
	// LLSKRSpread is the extra hop budget over the shortest path length
	// within which LLSKR admits paths (default 1 when zero).
	LLSKRSpread int
	// LLSKRMin is the minimum number of paths LLSKR keeps even if they
	// exceed the length budget (default 2 when zero).
	LLSKRMin int
	// DisableEDFallback, when set, lets EDKSP/rEDKSP return fewer than K
	// paths once the source and destination disconnect instead of topping
	// up with Yen paths. The paper observes the fallback is never needed
	// on practical Jellyfish configurations; the Computer counts uses so
	// experiments can verify that claim.
	DisableEDFallback bool
}

// Canonical renders the configuration as the canonical string used to
// derive path-cache keys (see internal/paths): two Configs map to the
// same string exactly when they select identical path sets on every
// graph. LLSKR's zero-value defaults are normalized, and the LLSKR knobs
// are omitted for the other algorithms, which ignore them.
func (c Config) Canonical() string {
	spread, minPaths := 0, 0
	if c.Alg == LLSKR {
		spread = c.LLSKRSpread
		if spread == 0 {
			spread = 1
		}
		minPaths = c.LLSKRMin
		if minPaths == 0 {
			minPaths = 2
		}
		if minPaths > c.K {
			minPaths = c.K
		}
	}
	return fmt.Sprintf("alg=%s k=%d spread=%d min=%d nofb=%t",
		c.Alg, c.K, spread, minPaths, c.DisableEDFallback)
}

// Computer computes path sets for one graph under one Config. It is not
// safe for concurrent use; parallel workers each create their own Computer
// over the shared graph (see paths.BuildDB).
type Computer struct {
	cfg Config
	g   *graph.Graph
	eng *graph.SPEngine // tie-break mode fixed by cfg.Alg
	rng *xrand.RNG

	// fallbacks counts source-destination pairs for which Remove-Find
	// disconnected before K paths were found.
	fallbacks int

	// Yen scratch.
	candidates []graph.Path
}

// NewComputer returns a Computer for g under cfg. rng is required for
// randomized algorithms and may be nil otherwise.
func NewComputer(g *graph.Graph, cfg Config, rng *xrand.RNG) *Computer {
	if cfg.K < 1 {
		panic("ksp: K must be >= 1")
	}
	tie := graph.TieDeterministic
	if cfg.Alg.Randomized() {
		tie = graph.TieRandom
		if rng == nil {
			panic(fmt.Sprintf("ksp: %v requires an RNG", cfg.Alg))
		}
	}
	return &Computer{
		cfg: cfg,
		g:   g,
		eng: graph.NewSPEngine(g, tie, rng),
		rng: rng,
	}
}

// Config returns the computer's configuration.
func (c *Computer) Config() Config { return c.cfg }

// Reseed resets the computer's random stream from the two seed words, so a
// long-lived computer can give each work item (e.g. each switch pair) a
// deterministic, schedule-independent stream. It is a no-op for
// deterministic algorithms.
func (c *Computer) Reseed(hi, lo uint64) {
	if c.rng != nil {
		c.rng.Reseed(xrand.Mix64(hi), xrand.Mix64(lo^0x9e3779b97f4a7c15))
	}
}

// Fallbacks returns how many pairs required the Yen top-up fallback because
// Remove-Find disconnected early. Zero on all of the paper's topologies.
func (c *Computer) Fallbacks() int { return c.fallbacks }

// Paths computes the path set for the ordered pair (src, dst). The result
// is sorted by nondecreasing hop count, each path is loopless and valid,
// and the first path is always a shortest path. For src == dst it returns
// nil.
func (c *Computer) Paths(src, dst graph.NodeID) []graph.Path {
	if src == dst {
		return nil
	}
	switch c.cfg.Alg {
	case KSP, RKSP:
		return c.yen(src, dst, c.cfg.K)
	case EDKSP, REDKSP:
		return c.removeFind(src, dst)
	case NDKSP, RNDKSP:
		return c.removeFindNodes(src, dst)
	case LLSKR:
		return c.llskr(src, dst)
	}
	panic(fmt.Sprintf("ksp: unknown algorithm %v", c.cfg.Alg))
}

// yen computes up to k shortest loopless paths (Yen 1971) using the
// engine's tie-break policy for both the underlying searches and the
// selection among equally short candidates.
func (c *Computer) yen(src, dst graph.NodeID, k int) []graph.Path {
	c.eng.ClearBans()
	first, ok := c.eng.ShortestPath(src, dst)
	if !ok {
		return nil
	}
	a := make([]graph.Path, 0, k)
	a = append(a, first)
	c.candidates = c.candidates[:0]

	for len(a) < k {
		prev := a[len(a)-1]
		for j := 0; j+1 < len(prev); j++ {
			spur := prev[j]
			rootPath := prev[:j+1]

			c.eng.ClearBans()
			// Ban the next edge of every accepted path that shares this
			// root, so the spur search cannot rediscover a known path.
			for _, p := range a {
				if len(p) > j && samePrefix(p, rootPath) {
					c.eng.BanDirectedEdge(p[j], p[j+1])
				}
			}
			// Ban root nodes (except the spur node) to keep the total path
			// loopless.
			for _, u := range rootPath[:j] {
				c.eng.BanNode(u)
			}

			spurPath, ok := c.eng.ShortestPath(spur, dst)
			if !ok {
				continue
			}
			total := make(graph.Path, 0, j+len(spurPath))
			total = append(total, rootPath[:j]...)
			total = append(total, spurPath...)
			if containsPath(a, total) || containsPath(c.candidates, total) {
				continue
			}
			c.candidates = append(c.candidates, total)
		}
		if len(c.candidates) == 0 {
			break
		}
		a = append(a, c.popBest())
	}
	c.eng.ClearBans()
	return a
}

// popBest removes and returns the best candidate: the minimum hop count,
// with ties broken lexicographically (deterministic mode) or uniformly at
// random (randomized mode).
func (c *Computer) popBest() graph.Path {
	best := 0
	ties := 1
	for i := 1; i < len(c.candidates); i++ {
		ci, cb := c.candidates[i], c.candidates[best]
		switch {
		case len(ci) < len(cb):
			best, ties = i, 1
		case len(ci) == len(cb):
			if c.cfg.Alg.Randomized() {
				// Reservoir-sample uniformly among ties.
				ties++
				if c.rng.IntN(ties) == 0 {
					best = i
				}
			} else if lexLess(ci, cb) {
				best = i
			}
		}
	}
	p := c.candidates[best]
	c.candidates[best] = c.candidates[len(c.candidates)-1]
	c.candidates = c.candidates[:len(c.candidates)-1]
	return p
}

// removeFind implements the Remove-Find edge-disjoint method: repeatedly
// find a shortest path, then ban its undirected edges. When the pair
// disconnects before K paths are found, the remaining slots are topped up
// with Yen paths over the original graph (excluding exact duplicates)
// unless the fallback is disabled.
func (c *Computer) removeFind(src, dst graph.NodeID) []graph.Path {
	c.eng.ClearBans()
	out := make([]graph.Path, 0, c.cfg.K)
	for len(out) < c.cfg.K {
		p, ok := c.eng.ShortestPath(src, dst)
		if !ok {
			break
		}
		out = append(out, p)
		for i := 0; i+1 < len(p); i++ {
			c.eng.BanUndirectedEdge(p[i], p[i+1])
		}
	}
	return c.topUp(src, dst, out)
}

// topUp finishes a Remove-Find search (edge- or node-disjoint): it clears
// the search's bans and, when the pair disconnected before K paths were
// found, fills the remaining slots with Yen paths over the original graph
// (excluding exact duplicates) unless the fallback is disabled.
func (c *Computer) topUp(src, dst graph.NodeID, out []graph.Path) []graph.Path {
	c.eng.ClearBans()
	if len(out) == 0 {
		return nil
	}
	if len(out) == c.cfg.K || c.cfg.DisableEDFallback {
		return out
	}
	c.fallbacks++
	for _, p := range c.yen(src, dst, c.cfg.K+len(out)) {
		if containsPath(out, p) {
			continue
		}
		out = append(out, p)
		if len(out) == c.cfg.K {
			break
		}
	}
	sortByHops(out)
	return out
}

// llskr approximates LLSKR (Yuan et al., SC'13): admit every Yen path whose
// length is within LLSKRSpread hops of the shortest, capped at K paths and
// floored at LLSKRMin paths.
func (c *Computer) llskr(src, dst graph.NodeID) []graph.Path {
	spread := c.cfg.LLSKRSpread
	if spread == 0 {
		spread = 1
	}
	minPaths := c.cfg.LLSKRMin
	if minPaths == 0 {
		minPaths = 2
	}
	if minPaths > c.cfg.K {
		minPaths = c.cfg.K
	}
	all := c.yen(src, dst, c.cfg.K)
	if len(all) == 0 {
		return nil
	}
	budget := all[0].Hops() + spread
	keep := len(all)
	for i, p := range all {
		if p.Hops() > budget {
			keep = i
			break
		}
	}
	if keep < minPaths {
		keep = minPaths
		if keep > len(all) {
			keep = len(all)
		}
	}
	return all[:keep]
}

// containsPath reports whether ps holds a path equal to p. Path sets are
// tiny (k <= 16), so a scan beats hashing.
func containsPath(ps []graph.Path, p graph.Path) bool {
	for _, q := range ps {
		if q.Equal(p) {
			return true
		}
	}
	return false
}

func samePrefix(p, prefix graph.Path) bool {
	if len(p) < len(prefix) {
		return false
	}
	for i := range prefix {
		if p[i] != prefix[i] {
			return false
		}
	}
	return true
}

func lexLess(p, q graph.Path) bool {
	n := len(p)
	if len(q) < n {
		n = len(q)
	}
	for i := 0; i < n; i++ {
		if p[i] != q[i] {
			return p[i] < q[i]
		}
	}
	return len(p) < len(q)
}

// sortByHops sorts paths by nondecreasing hop count, stably.
func sortByHops(ps []graph.Path) {
	// Insertion sort: path sets are tiny (k <= 16).
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Hops() < ps[j-1].Hops(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}
