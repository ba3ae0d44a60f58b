package main

import (
	"fmt"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/model"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/seeds"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

// permBase is the state the two random-permutation workloads share: the
// seed's RRG instance, its first random permutation and the rEDKSP(8)
// configuration the Figure 7-10 experiments use for it.
type permBase struct {
	sc       scale
	seed     uint64
	topo     *jellyfish.Topology
	numVCs   int
	pat      traffic.Pattern
	pairs    []paths.Pair
	cfg      ksp.Config
	pathSeed uint64
	rounds   sameRounds
}

func newPermBase(env *runEnv, p jellyfish.Params, tr *tracer) (*permBase, error) {
	topo, m, err := buildTopo(p, env.seed, tr)
	if err != nil {
		return nil, err
	}
	pat := traffic.RandomPermutation(topo.NumTerminals(), patternRNG(env.seed))
	return &permBase{
		sc:       env.sc,
		seed:     env.seed,
		topo:     topo,
		numVCs:   3*int(m.Diameter) + 2,
		pat:      pat,
		pairs:    switchPairs(topo, pat.Flows, permutationFlowEnds),
		cfg:      ksp.Config{Alg: ksp.REDKSP, K: env.sc.k},
		pathSeed: seeds.PathSeed(env.seed, 0, ksp.REDKSP),
	}, nil
}

// simConfig is one flitsim job on the shared pattern.
func (b *permBase) simConfig(p routing.PathProvider, mech routing.Mechanism, load float64, job int) flitsim.Config {
	return flitsim.Config{
		Topo:          b.topo,
		Paths:         p,
		Mechanism:     mech,
		Traffic:       traffic.NewFixedSampler(b.pat),
		InjectionRate: load,
		Seed:          xrand.Mix64(b.seed ^ uint64(job+1)<<20),
		NumVCs:        b.numVCs,
		WarmupCycles:  b.sc.warmup,
		SampleCycles:  b.sc.sampleCycles,
		NumSamples:    b.sc.samples,
	}
}

// checkConservation checks a finished or stepped flitsim run: every
// injected packet was delivered, dropped or is still inside, and the
// simulator's own recount of buffered packets agrees.
func checkConservation(c *checker, what string, sim *flitsim.Sim) {
	inj, del, inflight := sim.Counts()
	if inj != del+sim.Dropped()+inflight {
		c.failf("%s: injected %d != delivered %d + dropped %d + in flight %d", what, inj, del, sim.Dropped(), inflight)
	}
	if q := sim.QueuedPackets(); q != inflight {
		c.failf("%s: %d packets buffered, counters say %d in flight", what, q, inflight)
	}
}

// --- fig7-adaptive ----------------------------------------------------------

type fig7Adaptive struct {
	*permBase
	db *paths.DB
	// built lists every ordered switch pair, the pairs the DB holds.
	built []paths.Pair
}

// setupFig7Adaptive builds the DB over every ordered switch pair, as
// exp.Scale does with -path-cache, not over the pattern's pairs: their
// count varies with the seed, and the store's index map doubles at
// fixed sizes, so heap_mb would step by a tenth between seeds.
func setupFig7Adaptive(env *runEnv, tr *tracer) (instance, error) {
	b, err := newPermBase(env, env.sc.simTopo, tr)
	if err != nil {
		return nil, err
	}
	built := paths.AllOrderedPairs(b.topo.G.NumNodes())
	sp := tr.begin("paths.build")
	db := paths.Build(b.topo.G, b.cfg, b.pathSeed, built, 0)
	tr.end(sp)
	return &fig7Adaptive{permBase: b, db: db, built: built}, nil
}

func (w *fig7Adaptive) round(c *checker, tr *tracer, lc *layerCounts) (roundStats, error) {
	d := newDigester()
	var st roundStats
	t0 := nanotime()
	job := 0
	for _, mech := range []routing.Mechanism{routing.KSPAdaptive(), routing.KSPUGAL()} {
		for _, load := range w.sc.adaptiveLoads {
			prov, m, probe := probeSim(tr, w.db, w.built, mech)
			sp := tr.begin("flitsim.run")
			s0 := nanotime()
			sim, err := flitsim.NewSim(w.simConfig(prov, m, load, job))
			if err != nil {
				return st, fmt.Errorf("%s at load %v: %w", mech.Name(), load, err)
			}
			res := sim.Run()
			simNS := nanotime() - s0
			tr.end(sp)
			st.attempted++
			if lc != nil {
				lc.addSim(probe, false, simNS)
				lc.simCycles += sim.Clock()
				lc.simPackets += res.Injected
			}
			checkConservation(c, fmt.Sprintf("fig7-adaptive %s load %v", mech.Name(), load), sim)
			d.add(mech.Name(), load, res)
			job++
		}
	}
	sp := tr.begin("model.throughput")
	m0 := nanotime()
	mr := model.Throughput(w.topo, w.db, w.pat, 0)
	if lc != nil {
		lc.modelNS += nanotime() - m0
	}
	tr.end(sp)
	st.attempted++
	st.ns = nanotime() - t0
	d.add(mr.MeanNode)
	w.rounds.check(c, "fig7-adaptive", d.sum())
	return st, nil
}

func (w *fig7Adaptive) finish(c *checker) (digests, error) {
	dump, err := dumpDB(w.db)
	if err != nil {
		return digests{}, err
	}
	if n := checkPathSets(c, "fig7-adaptive", w.topo.G, w.cfg, w.db.Fallbacks(), dump); n != len(w.built) {
		c.failf("fig7-adaptive: DB stores %d pairs, built %d", n, len(w.built))
	}
	return digests{Sim: w.rounds.first, Paths: hashBytes(dump)}, nil
}

func (w *fig7Adaptive) layerMetrics(m map[string]float64) error {
	st, _ := w.db.StoreStats()
	m["paths.bytes_per_pair"] = safeDiv(float64(st.TotalBytes), float64(st.Pairs))
	m["paths.build_pairs"] = float64(len(w.built))
	return nil
}

func (w *fig7Adaptive) close() {}

// --- fig8-ugal --------------------------------------------------------------

type fig8UGAL struct {
	*permBase
	// last is the lazy DB the latest round filled.
	last *paths.DB
}

func setupFig8UGAL(env *runEnv, tr *tracer) (instance, error) {
	b, err := newPermBase(env, env.sc.topo, tr)
	if err != nil {
		return nil, err
	}
	return &fig8UGAL{permBase: b}, nil
}

// round simulates a pinned number of cycles on a fresh lazy DB, the
// exp.Scale default without a path cache, so every round pays the same
// fills.
func (w *fig8UGAL) round(c *checker, tr *tracer, lc *layerCounts) (roundStats, error) {
	var st roundStats
	t0 := nanotime()
	db := paths.NewDB(w.topo.G, w.cfg, w.pathSeed)
	prov, m, probe := probeSim(tr, db, nil, routing.VanillaUGAL())
	sp := tr.begin("flitsim.run")
	s0 := nanotime()
	sim, err := flitsim.NewSim(w.simConfig(prov, m, w.sc.ugalLoad, 0))
	if err != nil {
		return st, fmt.Errorf("UGAL: %w", err)
	}
	sim.Step(w.sc.ugalCycles)
	simNS := nanotime() - s0
	tr.end(sp)
	st.ns = nanotime() - t0
	st.attempted = 1
	if lc != nil {
		lc.addSim(probe, false, simNS)
		lc.simCycles += sim.Clock()
		inj, _, _ := sim.Counts()
		lc.simPackets += inj
	}
	checkConservation(c, "fig8-ugal", sim)
	inj, del, inflight := sim.Counts()
	d := newDigester()
	d.add(sim.Clock(), inj, del, inflight, sim.Dropped())
	w.rounds.check(c, "fig8-ugal", d.sum())
	w.last = db
	return st, nil
}

func (w *fig8UGAL) finish(c *checker) (digests, error) {
	dump, err := dumpDB(w.last)
	if err != nil {
		return digests{}, err
	}
	checkPathSets(c, "fig8-ugal", w.topo.G, w.cfg, w.last.Fallbacks(), dump)
	// Per-pair reseeding makes a lazy fill identical to an eager build
	// of the same pairs; not every pattern pair is routed within the
	// pinned cycles.
	var filled []paths.Pair
	for _, p := range w.pairs {
		if _, err := w.last.Lookup(p.Src, p.Dst); err == nil {
			filled = append(filled, p)
		}
	}
	eager := paths.Build(w.topo.G, w.cfg, w.pathSeed, filled, 0)
	for _, p := range filled {
		lazy, _ := w.last.Lookup(p.Src, p.Dst)
		if !samePathSet(lazy, eager.Paths(p.Src, p.Dst)) {
			c.failf("fig8-ugal: lazy paths of %d->%d differ from an eager build", p.Src, p.Dst)
			break
		}
	}
	return digests{Sim: w.rounds.first, Paths: hashBytes(dump)}, nil
}

func (w *fig8UGAL) layerMetrics(m map[string]float64) error { return nil }

func (w *fig8UGAL) close() {}
