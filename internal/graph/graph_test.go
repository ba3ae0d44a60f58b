package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// line returns the path graph 0-1-2-...-(n-1).
func line(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.Graph()
}

// cycle returns the ring graph on n nodes.
func cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.Graph()
}

// complete returns K_n.
func complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.Graph()
}

// randomGraph returns an Erdos-Renyi-ish graph for property tests.
func randomGraph(rng *xrand.RNG, n int, p float64) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				b.AddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return b.Graph()
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	if !b.AddEdge(0, 1) {
		t.Fatal("AddEdge(0,1) should be new")
	}
	if b.AddEdge(1, 0) {
		t.Fatal("AddEdge(1,0) duplicates {0,1}")
	}
	if !b.HasEdge(0, 1) || !b.HasEdge(1, 0) {
		t.Fatal("HasEdge should be symmetric")
	}
	if b.Degree(0) != 1 || b.Degree(2) != 0 {
		t.Fatal("degree wrong after one edge")
	}
	if !b.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge should report success")
	}
	if b.RemoveEdge(0, 1) {
		t.Fatal("RemoveEdge of missing edge should report false")
	}
	if b.HasEdge(0, 1) {
		t.Fatal("edge survived removal")
	}
}

func TestBuilderSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self loop did not panic")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestGraphFreeze(t *testing.T) {
	b := NewBuilder(5)
	edges := [][2]NodeID{{0, 3}, {0, 1}, {3, 4}, {1, 2}, {2, 3}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Graph()
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != len(edges) {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), len(edges))
	}
	if g.NumDirectedLinks() != 2*len(edges) {
		t.Fatalf("NumDirectedLinks = %d", g.NumDirectedLinks())
	}
	// Neighbors sorted ascending.
	nb := g.Neighbors(3)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("neighbors of 3 not sorted: %v", nb)
		}
	}
	// Frozen graph unaffected by later builder edits.
	b.AddEdge(0, 4)
	if g.HasEdge(0, 4) {
		t.Fatal("frozen graph saw a later builder edit")
	}
}

func TestLinkIDsAreDenseAndInvertible(t *testing.T) {
	g := randomGraph(xrand.New(5), 40, 0.2)
	seen := make([]bool, g.NumDirectedLinks())
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			id := g.LinkID(u, v)
			if id < 0 || int(id) >= g.NumDirectedLinks() {
				t.Fatalf("LinkID(%d,%d) = %d out of range", u, v, id)
			}
			if seen[id] {
				t.Fatalf("link id %d assigned twice", id)
			}
			seen[id] = true
			uu, vv := g.LinkEndpoints(id)
			if uu != u || vv != v {
				t.Fatalf("LinkEndpoints(%d) = (%d,%d), want (%d,%d)", id, uu, vv, u, v)
			}
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("link id %d never assigned", id)
		}
	}
	if g.LinkID(0, 0) != -1 {
		t.Fatal("LinkID of non-edge should be -1")
	}
}

func TestIsRegular(t *testing.T) {
	if d, ok := cycle(6).IsRegular(); !ok || d != 2 {
		t.Fatalf("cycle: IsRegular = (%d,%v)", d, ok)
	}
	if _, ok := line(5).IsRegular(); ok {
		t.Fatal("line graph reported regular")
	}
	if d, ok := complete(7).IsRegular(); !ok || d != 6 {
		t.Fatalf("K7: IsRegular = (%d,%v)", d, ok)
	}
}

func TestIsConnected(t *testing.T) {
	if !line(10).IsConnected() {
		t.Fatal("line should be connected")
	}
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	if b.Graph().IsConnected() {
		t.Fatal("two components reported connected")
	}
	if !NewBuilder(1).Graph().IsConnected() {
		t.Fatal("single node should count as connected")
	}
}

func TestClone(t *testing.T) {
	g := randomGraph(xrand.New(8), 25, 0.3)
	c := g.Clone().Graph()
	if c.NumEdges() != g.NumEdges() {
		t.Fatalf("clone edges = %d, want %d", c.NumEdges(), g.NumEdges())
	}
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		for _, v := range g.Neighbors(u) {
			if !c.HasEdge(u, v) {
				t.Fatalf("clone missing edge %d-%d", u, v)
			}
		}
	}
}

func TestPathHelpers(t *testing.T) {
	g := line(5)
	p := Path{0, 1, 2, 3}
	if p.Hops() != 3 || p.Src() != 0 || p.Dst() != 3 {
		t.Fatal("basic accessors wrong")
	}
	if !p.ValidIn(g) {
		t.Fatal("valid path rejected")
	}
	if (Path{0, 2}).ValidIn(g) {
		t.Fatal("invalid path accepted")
	}
	if !p.Loopless() || (Path{0, 1, 0}).Loopless() {
		t.Fatal("Loopless wrong")
	}
	q := p.Clone()
	q[0] = 4
	if p[0] == 4 {
		t.Fatal("Clone aliases")
	}
	if !p.Equal(Path{0, 1, 2, 3}) || p.Equal(Path{0, 1, 2}) || p.Equal(Path{0, 1, 2, 4}) {
		t.Fatal("Equal wrong")
	}
	if p.String() != "0->1->2->3" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestPathLinks(t *testing.T) {
	g := cycle(4)
	p := Path{0, 1, 2}
	links := p.Links(g, nil)
	if len(links) != 2 {
		t.Fatalf("Links count = %d", len(links))
	}
	if links[0] != g.LinkID(0, 1) || links[1] != g.LinkID(1, 2) {
		t.Fatal("wrong link ids")
	}
}

func TestSharedEdgesAndDisjoint(t *testing.T) {
	p := Path{0, 1, 2, 3}
	q := Path{5, 2, 1, 6} // shares {1,2} regardless of direction
	if p.SharedEdges(q) != 1 {
		t.Fatalf("SharedEdges = %d, want 1", p.SharedEdges(q))
	}
	if p.EdgeDisjoint(q) {
		t.Fatal("EdgeDisjoint wrong")
	}
	r := Path{4, 5, 6}
	if !p.EdgeDisjoint(r) {
		t.Fatal("disjoint paths reported sharing")
	}
	if (Path{0}).SharedEdges(p) != 0 {
		t.Fatal("degenerate path should share nothing")
	}
}

func TestEdgeKeys(t *testing.T) {
	if UndirectedEdgeKey(3, 7) != UndirectedEdgeKey(7, 3) {
		t.Fatal("undirected key not symmetric")
	}
	f := func(a, b uint16, c, d uint16) bool {
		u1, v1, u2, v2 := NodeID(a), NodeID(b), NodeID(c), NodeID(d)
		same := (u1 == u2 && v1 == v2) || (u1 == v2 && v1 == u2)
		return same == (UndirectedEdgeKey(u1, v1) == UndirectedEdgeKey(u2, v2))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
