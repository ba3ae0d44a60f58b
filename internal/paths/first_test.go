package paths

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/xrand"
)

// sparseGraph is a degree-3 RRG(60,8,3): k=8 exceeds its degree, so every
// edge-disjoint set takes the Yen top-up.
func sparseGraph(t *testing.T) *graph.Graph {
	t.Helper()
	topo, err := jellyfish.New(jellyfish.Params{N: 60, X: 8, Y: 3}, xrand.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return topo.G
}

// samplePairsWithRepeats draws count ordered pairs, self pairs and
// repeats included, the way random Valiant intermediates arrive.
func samplePairsWithRepeats(n, count int, seed uint64) []Pair {
	rng := xrand.New(seed)
	out := make([]Pair, count)
	for i := range out {
		out[i] = Pair{graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n))}
	}
	return out
}

func dumps(t *testing.T, db *DB) (text, cache []byte) {
	t.Helper()
	var a, b bytes.Buffer
	if err := db.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteCache(&b, 0xfeed); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes()
}

// TestFirstFilledDBWritesIdentically fills one lazy DB through First and
// another through Paths over the same request sequence: First answers
// Paths()[0], and both DBs write byte-identical Write and WriteCache
// output, the First-filled one filling its pending pairs on the way.
func TestFirstFilledDBWritesIdentically(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		cfg  ksp.Config
	}{
		{"rEDKSP-RRG24", testGraph(t), ksp.Config{Alg: ksp.REDKSP, K: 8}},
		{"EDKSP-topup", sparseGraph(t), ksp.Config{Alg: ksp.EDKSP, K: 8}},
		{"rNDKSP-topup", sparseGraph(t), ksp.Config{Alg: ksp.RNDKSP, K: 8}},
		{"rKSP", testGraph(t), ksp.Config{Alg: ksp.RKSP, K: 4}},
		{"LLSKR", testGraph(t), ksp.Config{Alg: ksp.LLSKR, K: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pairs := samplePairsWithRepeats(tc.g.NumNodes(), 300, 9)
			byFirst := NewDB(tc.g, tc.cfg, 17)
			byPaths := NewDB(tc.g, tc.cfg, 17)
			for i, p := range pairs {
				first := byFirst.First(p.Src, p.Dst)
				ps := byPaths.Paths(p.Src, p.Dst)
				if len(ps) == 0 {
					if first != nil {
						t.Fatalf("%d->%d: First %v, Paths empty", p.Src, p.Dst, first)
					}
				} else if !first.Equal(ps[0]) {
					t.Fatalf("%d->%d: First %v, Paths()[0] %v", p.Src, p.Dst, first, ps[0])
				}
				if i%7 == 0 {
					// Some pairs of the First DB are also read whole,
					// leaving it a mix of pending and filled pairs.
					byFirst.Paths(p.Src, p.Dst)
				}
			}
			if len(byFirst.pending) == 0 || len(byFirst.m) == 0 {
				t.Fatalf("want both pending (%d) and filled (%d) pairs", len(byFirst.pending), len(byFirst.m))
			}
			if got, want := byFirst.NumPairs(), byPaths.NumPairs(); got != want {
				t.Fatalf("NumPairs %d, want %d", got, want)
			}
			text, cache := dumps(t, byFirst)
			if len(byFirst.pending) != 0 {
				t.Fatalf("%d pairs still pending after Write", len(byFirst.pending))
			}
			wantText, wantCache := dumps(t, byPaths)
			if !bytes.Equal(text, wantText) {
				t.Fatal("Write output of the First-filled DB differs")
			}
			if !bytes.Equal(cache, wantCache) {
				t.Fatal("WriteCache output of the First-filled DB differs")
			}
		})
	}
}

// TestFirstOnPackedDB answers stored pairs from the packed store and
// misses from a single search, under the packed build's own reseed.
func TestFirstOnPackedDB(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 4}
	db := Build(g, cfg, 3, AllOrderedPairs(12), 1) // switches 0..11 packed
	eager := BuildAllPairs(g, cfg, 3, 1)
	for s := graph.NodeID(0); s < 24; s++ {
		for d := graph.NodeID(0); d < 24; d++ {
			got := db.First(s, d)
			if s == d {
				if got != nil {
					t.Fatalf("self pair %d returned %v", s, got)
				}
				continue
			}
			if want := eager.Paths(s, d)[0]; !got.Equal(want) {
				t.Fatalf("%d->%d: First %v, eager %v", s, d, got, want)
			}
		}
	}
	if want := 24*23 - 12*11; len(db.pending) != want {
		t.Fatalf("%d pending pairs, want %d (the pairs outside the packed store)", len(db.pending), want)
	}
}

// TestPendingPairReadsWhole checks each reader of a pending pair on a
// fresh DB, so each one has to fill the pair itself: Lookup returns the
// whole set, NumPairs counts the pair, Fallbacks counts its top-up.
func TestPendingPairReadsWhole(t *testing.T) {
	g := sparseGraph(t)
	cfg := ksp.Config{Alg: ksp.EDKSP, K: 8}
	const seed = 4
	eager := Build(g, cfg, seed, []Pair{{0, 1}, {2, 9}}, 1)
	pending := func() *DB {
		db := NewDB(g, cfg, seed)
		db.First(0, 1)
		db.First(2, 9)
		db.First(2, 9)
		return db
	}

	db := pending()
	ps, err := db.Lookup(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !samePaths(ps, eager.Paths(2, 9)) {
		t.Fatalf("Lookup of a pending pair: %v, want %v", ps, eager.Paths(2, 9))
	}
	if _, err := db.Lookup(3, 4); !errors.Is(err, ErrNotStored) {
		t.Fatalf("Lookup of a pair First never saw: %v, want ErrNotStored", err)
	}

	if got := pending().NumPairs(); got != 2 {
		t.Fatalf("NumPairs %d, want 2", got)
	}

	if eager.Fallbacks() != 2 {
		t.Fatalf("eager fallbacks %d, want 2 (k exceeds the degree)", eager.Fallbacks())
	}
	if got := pending().Fallbacks(); got != eager.Fallbacks() {
		t.Fatalf("Fallbacks %d, want %d", got, eager.Fallbacks())
	}
}

// TestFirstUnreachablePair: on a disconnected graph First returns nil
// and the pair is stored with an empty set, exactly as after Paths.
func TestFirstUnreachablePair(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	g := b.Graph()
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 2}
	byFirst, byPaths := NewDB(g, cfg, 1), NewDB(g, cfg, 1)
	if p := byFirst.First(0, 3); p != nil {
		t.Fatalf("unreachable pair returned %v", p)
	}
	byPaths.Paths(0, 3)
	if n := byFirst.NumPairs(); n != 1 {
		t.Fatalf("NumPairs %d, want 1", n)
	}
	text, cache := dumps(t, byFirst)
	wantText, wantCache := dumps(t, byPaths)
	if !bytes.Equal(text, wantText) || !bytes.Equal(cache, wantCache) {
		t.Fatal("unreachable pending pair serializes differently")
	}
	if _, err := byFirst.Lookup(0, 3); !errors.Is(err, ErrNoPath) {
		t.Fatalf("Lookup: %v, want ErrNoPath", err)
	}
}

// TestConcurrentFirstAndPaths races First, Paths, Lookup and Write on one
// lazy DB (run under -race by `make race-paths`). Every answer must match
// an eager build, and a final Write must equal the eager build's.
func TestConcurrentFirstAndPaths(t *testing.T) {
	g := testGraph(t)
	cfg := ksp.Config{Alg: ksp.REDKSP, K: 3}
	const seed = 23
	var pairs []Pair
	for s := graph.NodeID(0); s < 10; s++ {
		for d := graph.NodeID(0); d < 10; d++ {
			if s != d {
				pairs = append(pairs, Pair{s, d})
			}
		}
	}
	eager := Build(g, cfg, seed, pairs, 1)
	db := NewDB(g, cfg, seed)

	const racers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(racers)
	for r := 0; r < racers; r++ {
		go func() {
			defer done.Done()
			start.Wait()
			for i := range pairs {
				p := pairs[(i*(r+1)+r)%len(pairs)]
				want := eager.Paths(p.Src, p.Dst)
				switch (i + r) % 4 {
				case 0, 1:
					if got := db.First(p.Src, p.Dst); !got.Equal(want[0]) {
						t.Errorf("First %d->%d: %v, want %v", p.Src, p.Dst, got, want[0])
						return
					}
				case 2:
					if got := db.Paths(p.Src, p.Dst); !samePaths(got, want) {
						t.Errorf("Paths %d->%d: %v, want %v", p.Src, p.Dst, got, want)
						return
					}
				case 3:
					got, err := db.Lookup(p.Src, p.Dst)
					if err != nil && !errors.Is(err, ErrNotStored) {
						t.Errorf("Lookup %d->%d: %v", p.Src, p.Dst, err)
						return
					}
					if err == nil && !samePaths(got, want) {
						t.Errorf("Lookup %d->%d: %v, want %v", p.Src, p.Dst, got, want)
						return
					}
				}
				if i%25 == r {
					var buf bytes.Buffer
					if err := db.Write(&buf); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	start.Done()
	done.Wait()

	for _, p := range pairs {
		db.First(p.Src, p.Dst)
	}
	var got, want bytes.Buffer
	if err := db.Write(&got); err != nil {
		t.Fatal(err)
	}
	if err := eager.Write(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("raced DB writes differently from the eager build")
	}
	if db.Fallbacks() != eager.Fallbacks() {
		t.Fatalf("fallbacks %d, want %d", db.Fallbacks(), eager.Fallbacks())
	}
}

func samePaths(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
