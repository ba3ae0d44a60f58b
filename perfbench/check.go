package main

import (
	"bufio"
	"bytes"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"strconv"
	"strings"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/paths"
)

// pinnedSeed is the seed whose digests are recorded below. At any other
// seed only the invariants are checked.
const pinnedSeed = 1

// pinnedDigests holds, per "<scale>/<workload>", the digest of every
// simulated statistic ("sim") and of the stored path sets ("paths") at
// pinnedSeed. A change that only speeds a layer up must leave them
// bit-identical; a change that means to alter results updates them in
// the same commit and says why.
var pinnedDigests = map[string]digests{
	"full/fig7-adaptive": {Sim: "8cf59a2d5a9a6d77", Paths: "da70919239786a20"},
	"full/fig8-ugal":     {Sim: "4d8b590afc007a6b", Paths: "c2240971cbe733a6"},
	"full/table5-app":    {Sim: "6bff260528954817", Paths: "f0983ee7d17f9107"},
	"full/serve-mixed":   {Paths: "da70919239786a20"},
	"tiny/fig7-adaptive": {Sim: "8b29124269f41bea", Paths: "a1ecbebfe2356c4b"},
	"tiny/fig8-ugal":     {Sim: "4104907fc251e06e", Paths: "85476af09b85c799"},
	"tiny/table5-app":    {Sim: "4159a11a6e8038e4", Paths: "e6dc127b445c5182"},
	"tiny/serve-mixed":   {Paths: "dfb10703fcb0aa92"},
}

// digests identifies a run's outputs. Sim is empty for workloads whose
// results depend on scheduling (serve-mixed's adaptive choices).
type digests struct {
	Sim   string `json:"sim,omitempty"`
	Paths string `json:"paths"`
}

// checker collects failed output checks; a run with any is incorrect.
type checker struct {
	problems []string
}

func (c *checker) failf(format string, args ...any) {
	if len(c.problems) < 50 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checker) ok() bool { return len(c.problems) == 0 }

// digester hashes a stream of values printed with %v, which renders
// every float64 exactly (shortest round-trip form).
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) add(vs ...any) {
	for _, v := range vs {
		fmt.Fprintf(d.h, "%+v|", v)
	}
}

func (d *digester) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

// checkDigests compares a run's digests with the ones pinned for its
// scale and workload; unpinned entries are reported so they can be
// recorded.
func checkDigests(c *checker, key string, seed uint64, got digests) {
	if seed != pinnedSeed {
		return
	}
	want, ok := pinnedDigests[key]
	if !ok || want.Paths == "" {
		c.failf("%s: no digest pinned for seed %d (got sim %q paths %q)", key, seed, got.Sim, got.Paths)
		return
	}
	if got.Sim != want.Sim {
		c.failf("%s: simulated-statistics digest %q, pinned %q", key, got.Sim, want.Sim)
	}
	if got.Paths != want.Paths {
		c.failf("%s: path-set digest %q, pinned %q", key, got.Paths, want.Paths)
	}
}

// sameRounds checks that every round of a deterministic workload
// reproduces the first round's digest.
type sameRounds struct{ first string }

func (r *sameRounds) check(c *checker, what, got string) {
	if r.first == "" {
		r.first = got
	} else if got != r.first {
		c.failf("%s: round digest %s differs from the first round's %s", what, got, r.first)
	}
}

// dumpDB returns the DB's stored path sets in paths' sorted text form:
// the same bytes for the same path sets however they were filled.
func dumpDB(db *paths.DB) ([]byte, error) {
	var buf bytes.Buffer
	if err := db.Write(&buf); err != nil {
		return nil, fmt.Errorf("dump path DB: %w", err)
	}
	return buf.Bytes(), nil
}

func hashBytes(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkPathSets validates every stored set of a DB dump: each path is a
// simple path over graph edges from the pair's source to its
// destination, a set holds 1..k paths, and for an edge-disjoint
// selector no two paths of a pair share a link except in pairs the
// selector had to top up (at most fallbacks of them). It returns the
// number of pairs checked.
func checkPathSets(c *checker, what string, g *graph.Graph, cfg ksp.Config, fallbacks int, dump []byte) int {
	var (
		pairs, shared int
		src, dst      graph.NodeID
		set           []graph.Path
	)
	flush := func() {
		if set == nil {
			return
		}
		if len(set) < 1 || len(set) > cfg.K {
			c.failf("%s: pair %d->%d holds %d paths, want 1..%d", what, src, dst, len(set), cfg.K)
		}
		for _, p := range set {
			checkPath(c, what, g, src, dst, p)
		}
		if cfg.Alg.EdgeDisjoint() && paths.MaxShare(set) > 1 {
			shared++
		}
		set = nil
	}
	sc := bufio.NewScanner(bytes.NewReader(dump))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "pair":
			if len(f) != 4 {
				c.failf("%s: malformed dump line %q", what, sc.Text())
				continue
			}
			flush()
			pairs++
			src, dst = atoiNode(f[1]), atoiNode(f[2])
			set = []graph.Path{}
		case "path":
			p := make(graph.Path, len(f)-1)
			for i, s := range f[1:] {
				p[i] = atoiNode(s)
			}
			set = append(set, p)
		}
	}
	flush()
	if shared > fallbacks {
		c.failf("%s: %d pairs share a link across paths, but only %d needed the top-up fallback", what, shared, fallbacks)
	}
	return pairs
}

func atoiNode(s string) graph.NodeID {
	v, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return graph.NodeID(v)
}

// checkPath validates one path of the pair src->dst.
func checkPath(c *checker, what string, g *graph.Graph, src, dst graph.NodeID, p graph.Path) {
	if len(p) < 2 || p[0] != src || p[len(p)-1] != dst {
		c.failf("%s: path %v does not join %d->%d", what, p, src, dst)
		return
	}
	n := graph.NodeID(g.NumNodes())
	for _, u := range p {
		if u < 0 || u >= n {
			c.failf("%s: path %v leaves the %d switches", what, p, n)
			return
		}
	}
	for i := 0; i+1 < len(p); i++ {
		if !g.HasEdge(p[i], p[i+1]) {
			c.failf("%s: path %v uses non-edge %d-%d", what, p, p[i], p[i+1])
			return
		}
	}
	seen := slices.Clone(p)
	slices.Sort(seen)
	if len(slices.Compact(seen)) != len(p) {
		c.failf("%s: path %v revisits a switch", what, p)
	}
}
