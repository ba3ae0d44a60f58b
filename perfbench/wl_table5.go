package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/appsim"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// table5 replays the 3DNNdiag stencil under linear mapping (a Table V
// cell) with KSP-adaptive on a path DB that went through the JFPC cache.
type table5 struct {
	seed     uint64
	topo     *jellyfish.Topology
	numVCs   int
	flows    []traffic.SizedFlow
	pairs    []paths.Pair
	cfg      ksp.Config
	built    *paths.DB // the eager build
	db       *paths.DB // the same DB read back from the cache file
	file     string
	fileSize int64
	rounds   sameRounds
	expect   int64 // packets the flows inject
}

func setupTable5(env *runEnv, tr *tracer) (instance, error) {
	topo, m, err := buildTopo(env.sc.simTopo, env.seed, tr)
	if err != nil {
		return nil, err
	}
	n := topo.NumTerminals()
	wl := traffic.Stencil(traffic.StencilConfig{Kind: traffic.Stencil3DNNDiag, Ranks: n, TotalBytes: env.sc.bytesPerRank})
	flows := wl.Apply(traffic.LinearMapping(n))
	w := &table5{
		seed:   env.seed,
		topo:   topo,
		numVCs: 2*int(m.Diameter) + 2, // what appsim derives for a minimal mechanism
		flows:  flows,
		pairs:  switchPairs(topo, flows, sizedFlowEnds),
		cfg:    ksp.Config{Alg: ksp.REDKSP, K: env.sc.k},
	}
	for _, f := range flows {
		if f.Src != f.Dst && f.Bytes > 0 {
			w.expect += (f.Bytes + appsim.DefaultPacketBytes - 1) / appsim.DefaultPacketBytes
		}
	}
	pathSeed := seeds.PathSeed(env.seed, 0, ksp.REDKSP)

	sp := tr.begin("paths.build")
	w.built = paths.Build(topo.G, w.cfg, pathSeed, w.pairs, 0)
	tr.end(sp)

	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		return nil, err
	}
	key := paths.CacheKey(topo.G, w.cfg, pathSeed, w.pairs)
	w.file = filepath.Join(env.workdir, fmt.Sprintf("table5-%d-%d-%s", os.Getpid(), instanceSeq.Add(1), paths.CacheFileName(key)))
	sp = tr.begin("paths.cache_write")
	err = writeCacheFile(w.file, w.built, key)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("paths.cache_read")
	db, gotKey, err := readCacheFile(w.file, topo.G)
	tr.end(sp)
	if err != nil {
		os.Remove(w.file)
		return nil, err
	}
	if gotKey != key {
		os.Remove(w.file)
		return nil, fmt.Errorf("cache file %s holds key %016x, wrote %016x", w.file, gotKey, key)
	}
	w.db = db
	if fi, err := os.Stat(w.file); err == nil {
		w.fileSize = fi.Size()
	}
	return w, nil
}

func writeCacheFile(name string, db *paths.DB, key uint64) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := db.WriteCache(f, key); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", name, err)
	}
	return f.Close()
}

func readCacheFile(name string, g *graph.Graph) (*paths.DB, uint64, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	db, key, err := paths.ReadCache(f, g)
	if err != nil {
		return nil, 0, fmt.Errorf("read %s: %w", name, err)
	}
	return db, key, nil
}

func (w *table5) round(c *checker, tr *tracer, lc *layerCounts) (roundStats, error) {
	var st roundStats
	prov, m, probe := probeSim(tr, w.db, w.pairs, routing.KSPAdaptive())
	sp := tr.begin("appsim.run")
	t0 := nanotime()
	res, err := appsim.Run(appsim.Config{
		Topo:      w.topo,
		Paths:     prov,
		Mechanism: m,
		Flows:     w.flows,
		NumVCs:    w.numVCs,
		Seed:      xrand.Mix64(w.seed ^ 0x7461626c6535), // "table5"
	})
	st.ns = nanotime() - t0
	tr.end(sp)
	st.attempted = 1
	if err != nil {
		st.failed = 1
		return st, fmt.Errorf("appsim: %w", err)
	}
	if lc != nil {
		lc.addSim(probe, true, st.ns)
		lc.appPackets += res.Packets
	}
	if res.Packets+res.Dropped != w.expect {
		c.failf("table5-app: delivered %d + dropped %d packets, the flows inject %d", res.Packets, res.Dropped, w.expect)
	}
	d := newDigester()
	d.add(res.Cycles, res.Packets, res.MaxHops, res.Dropped)
	w.rounds.check(c, "table5-app", d.sum())
	return st, nil
}

func (w *table5) finish(c *checker) (digests, error) {
	built, err := dumpDB(w.built)
	if err != nil {
		return digests{}, err
	}
	read, err := dumpDB(w.db)
	if err != nil {
		return digests{}, err
	}
	if !bytes.Equal(built, read) {
		c.failf("table5-app: the DB read back from %s differs from the built one", w.file)
	}
	if n := checkPathSets(c, "table5-app", w.topo.G, w.cfg, w.built.Fallbacks(), built); n != len(w.pairs) {
		c.failf("table5-app: DB stores %d pairs, the stencil has %d", n, len(w.pairs))
	}
	return digests{Sim: w.rounds.first, Paths: hashBytes(built)}, nil
}

func (w *table5) layerMetrics(m map[string]float64) error {
	st, _ := w.db.StoreStats()
	m["paths.cache_bytes"] = float64(w.fileSize)
	m["paths.bytes_per_pair"] = safeDiv(float64(st.TotalBytes), float64(st.Pairs))
	m["paths.build_pairs"] = float64(len(w.pairs))
	return nil
}

func (w *table5) close() { os.Remove(w.file) }

// samePathSet reports whether two candidate sets hold the same paths in
// the same order.
func samePathSet(a, b []graph.Path) bool {
	return slices.EqualFunc(a, b, func(x, y graph.Path) bool { return slices.Equal(x, y) })
}
