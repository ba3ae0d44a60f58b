package routing

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/xrand"
)

// firstDB is a First-capable provider that counts whole-set reads.
type firstDB struct {
	db    *paths.DB
	whole int
}

func (f *firstDB) Paths(s, d graph.NodeID) []graph.Path {
	f.whole++
	return f.db.Paths(s, d)
}

func (f *firstDB) First(s, d graph.NodeID) graph.Path { return f.db.First(s, d) }

// pathsOnly hides the DB's First, leaving View.First its Paths fallback.
type pathsOnly struct{ db *paths.DB }

func (p pathsOnly) Paths(s, d graph.NodeID) []graph.Path { return p.db.Paths(s, d) }

// TestFirstProviderParity drives UGAL and SP through a First-capable
// provider and a Paths-only one with the same seeds and a static load
// estimator: the Choose sequences are identical, and healthy UGAL and SP
// never read a whole candidate set from the First-capable provider.
// Under active faults both still go through LiveCandidates.
func TestFirstProviderParity(t *testing.T) {
	const (
		seed    = 42
		maxHops = 12
		draws   = 400
	)
	topo, err := jellyfish.New(jellyfish.Params{N: 16, X: 8, Y: 4}, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	g := topo.G
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 8}
	// A static estimator that still sends some packets each way.
	load := funcEstimator(func(p graph.Path) int {
		if p.Hops() <= 0 {
			return 0
		}
		return p.Hops() * (1 + int(p[0]*7+p[1])%9)
	})
	victim := paths.NewDB(g, cfg, 1).Paths(0, 5)[0]
	sched, err := faults.PathDown(victim, 0)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := faults.PolicyByName("reroute")
	if err != nil {
		t.Fatal(err)
	}

	for _, m := range []Mechanism{VanillaUGAL(), SP()} {
		t.Run(m.Name(), func(t *testing.T) {
			withFirst := &firstDB{db: paths.NewDB(g, cfg, 1)}
			plain := pathsOnly{db: paths.NewDB(g, cfg, 1)}
			fstA, err := faults.NewState(g, sched, policy, faults.RepairConfigOf(withFirst.db), maxHops)
			if err != nil {
				t.Fatal(err)
			}
			fstB, err := faults.NewState(g, sched, policy, faults.RepairConfigOf(plain.db), maxHops)
			if err != nil {
				t.Fatal(err)
			}
			viewA := View{Provider: withFirst, Faults: fstA, NumNodes: g.NumNodes(), MaxHops: maxHops}
			viewB := View{Provider: plain, Faults: fstB, NumNodes: g.NumNodes(), MaxHops: maxHops}
			stateA, stateB := m.NewState(), m.NewState()
			rngA, rngB := xrand.New(seed), xrand.New(seed)
			detours := 0
			drive := func(phase string) {
				traffic := xrand.New(99)
				for i := 0; i < draws; i++ {
					src := graph.NodeID(traffic.IntN(g.NumNodes()))
					dst := graph.NodeID(traffic.IntN(g.NumNodes()))
					pA, iA := stateA.Choose(&viewA, src, dst, load, rngA)
					pB, iB := stateB.Choose(&viewB, src, dst, load, rngB)
					if iA != iB || !pA.Equal(pB) || (pA == nil) != (pB == nil) {
						t.Fatalf("%s draw %d (%d->%d): with First %v (idx %d), Paths-only %v (idx %d)",
							phase, i, src, dst, pA, iA, pB, iB)
					}
					if iA == -1 && src != dst {
						detours++
					}
				}
			}

			drive("healthy")
			if withFirst.whole != 0 {
				t.Fatalf("healthy %s read %d whole candidate sets from a First-capable provider", m.Name(), withFirst.whole)
			}
			if m.NonMinimal() && detours == 0 {
				t.Fatal("no packet took a Valiant detour; the legs are not exercised")
			}

			if len(fstA.Advance(0)) == 0 || len(fstB.Advance(0)) == 0 || !fstA.Active() {
				t.Fatal("fault schedule did not fire")
			}
			drive("degraded")
			if withFirst.whole == 0 {
				t.Fatalf("degraded %s never read a whole candidate set; LiveCandidates was bypassed", m.Name())
			}
		})
	}
}
