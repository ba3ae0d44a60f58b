// Command perfbench is the repository's benchmark: one command that
// times a paper artifact end to end and jfserve as a client sees it, and
// a separate traced run that says which layer the time went to.
//
//	bash perfbench/run.sh --workload fig7-adaptive --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload fig7-adaptive --seed 1 --seconds 10 --trace 1 --out trace.json
//	bash perfbench/run.sh compare old-runs/ new-runs/
//
// run.sh builds this package from source (it is a module of its own that
// imports the repository's packages through a replace directive, so the
// repository's `go test ./...` does not run it) and keeps everything it
// writes in .bench_build/. The benchmark drives the program only through
// public package calls: jellyfish.New, graph.ComputeMetrics,
// paths.Build/NewDB/WriteCache/ReadCache, flitsim.NewSim+Run/Step,
// appsim.Run, model.Throughput, and an in-process serve.NewServer reached
// through serve/client over a Unix socket. Every input derives from
// --seed.
//
// # Workloads
//
// Each runs on the seed's RRG instance as the experiment binaries build
// it for -seed (internal/seeds), with rEDKSP(8) path sets.
//
//   - fig7-adaptive: RRG(36,24,16), Figure 7's system, with the seed's
//     first random permutation; rEDKSP(8) built eagerly over every
//     ordered switch pair, as exp.Scale builds it with -path-cache (over
//     the pattern's pairs alone, heap_mb stepped by a tenth between seeds
//     whose pair counts fall either side of an index-map doubling). A
//     round runs cycle-stepped flitsim jobs one at a time — KSP-adaptive
//     and KSP-UGAL at loads 0.3 and 0.6, 3000 cycles each — then
//     model.Throughput on the same pattern. Why:
//     flitsim's hot loop and the mechanisms' Choose do almost all the
//     work; the path layer only answers lookups from its packed store.
//   - fig8-ugal: RRG(720,24,19), Figure 8's system, with the seed's first
//     random permutation, vanilla UGAL at load 0.3 for a pinned 2 cycles
//     on a fresh lazy rEDKSP DB (the exp.Scale default without
//     -path-cache), so every round pays the same fills. Why: lazy k=8
//     fills for the random intermediates' legs are the whole cost (the
//     wall that keeps Figure 8 from finishing). A flitsim-only change
//     should not move it; first-path-only UGAL legs or a faster
//     edge-disjoint search should.
//   - table5-app: the 3DNNdiag stencil under linear mapping at the
//     paper's 15 MB per rank on RRG(36,24,16), the Table V cell
//     EXPERIMENTS.md regenerates. Setup builds rEDKSP(8) eagerly over the
//     stencil's switch pairs with GOMAXPROCS workers, writes it to a JFPC
//     cache file and reads it back; a round replays the stencil in
//     appsim with KSP-adaptive on the read-back DB. Why: the only appsim
//     workload, ksp's parallel eager build (the opposite of fig8-ugal's
//     single-threaded lazy fills), and both directions of the path
//     cache.
//   - serve-mixed: an in-process jfserve with cmd/jfserve's default
//     limits serving the small topology (all pairs, rEDKSP(8),
//     ksp-adaptive, link-load). A round is a closed loop of two
//     connections (the core count of the 2-core host the benchmark was
//     sized on), one sending binary routes-batch frames of 512 pairs and
//     the other JSON single route calls at the same time, followed by
//     one binary sweep of 131072 generated pairs. Why: serving, the
//     codecs and admission are the whole cost; nothing is computed in
//     ksp after setup. Folding jfserve's two admission paths into one
//     should show as no change.
//
// The two simulator workloads run on the small system rather than
// RRG(720,24,19): on the shared 2-core host the benchmark was sized on,
// flitsim and appsim rounds on the 720-switch system, whose state lives
// in the last-level cache the host shares, ran up to 2.5 times slower in
// some minutes than in others, while the 36-switch system's varied by a
// third; the ksp- and serve-bound workloads stayed within a few percent.
//
// # Metrics
//
// With --trace 0 a run sets up, runs one warm-up round, then repeats
// rounds of fixed work for --seconds, timing one more setup (closed at
// once) after each round so that setup_s is a median over the same
// stretch of time as run_s, and reports:
//
//   - setup_s: set-up wall time (topology, metrics, path build, cache
//     write and read, daemon topo-load, as the workload has them);
//   - run_s: the median round's wall time;
//   - heap_mb: live heap after a forced GC once set up (after the
//     warm-up round) and at the end of the run, the larger of the two.
//
// The last line of stdout is {"correct", "attempted", "failed",
// "metrics"}: attempted counts operations (simulator jobs, model
// evaluations, requests), failed the ones that failed or were refused,
// so failed/attempted is the run's failure share. The line before it
// stamps the run: workload, seed, Go version, GOOS/GOARCH, NumCPU,
// GOMAXPROCS, vcs.revision, and a flag when GOMAXPROCS exceeds NumCPU.
// --out writes the full record (setups, rounds, digests, and for traced
// runs the layer account and spans) for compare mode.
//
// jfserve's client-side figures (batch_lookups_per_s, batch_p50_ms,
// batch_p99_ms, route_p50_us, route_p99_us, sweep_pairs_per_s) are
// per-layer metrics: every end-to-end metric must be reported by every
// workload, and these exist only on serve-mixed. Its run_s carries them
// end to end, since a round is a fixed amount of serving work.
//
// # Layers
//
// With --trace 1 a run sets up once with phase spans around every call
// into a layer, then alternates untraced and traced rounds for
// --seconds, so both kinds see the same machine. trace.overhead_frac is
// the traced median round over the untraced one, minus one. The traced
// rounds wrap the routing.PathProvider and routing.Mechanism/State the
// simulators take. Every Choose and every path lookup is counted, and a
// lookup of a pair the DB did not hold yet counts as a lazy fill. Every
// fill is timed; one Choose in 16 is timed together with the lookups
// nested in it, and those times are scaled to all calls (timing each of
// a fig8 round's four million calls would add about a third to the
// round). jfserve's client calls are timed one by one. Counts and times
// are per round.
//
//	layer       metrics                                        should move          dominant in / should not move in
//	jellyfish,  jellyfish.new_s, graph.metrics_s               setup_s              fig7, fig8 setup / serve-mixed
//	graph
//	ksp, paths  paths.build_s, paths.build_pairs_per_s,        run_s (fig8-ugal),   fig8-ugal, table5-app setup /
//	            paths.lookups, paths.lookup_s,                 setup_s (table5-app, serve-mixed run
//	            paths.lazy_fills, paths.fill_pairs_per_s,      fig7-adaptive),
//	            paths.cache_write_s, paths.cache_read_s,       heap_mb
//	            paths.cache_bytes, paths.bytes_per_pair
//	routing     routing.chooses, routing.choose_self_ns        run_s (fig7-adaptive) fig7-adaptive / table5-app setup
//	            (Choose minus its nested lookups)
//	flitsim     flitsim.self_s, flitsim.cycles_per_s,          run_s (fig7-adaptive) fig7-adaptive / fig8-ugal
//	            flitsim.ns_per_hop (host ns per simulated
//	            packet-hop), flitsim.packets
//	appsim      appsim.self_s, appsim.ns_per_hop,              run_s (table5-app)   table5-app / all others
//	            appsim.packets
//	model       model.throughput_s                             run_s (fig7-adaptive, —
//	                                                           small share)
//	serve       serve.topo_load_s, serve.server_p50_us,        run_s (serve-mixed)  serve-mixed / all others
//	            serve.server_p99_us (the stats op),
//	            serve.shed, serve.io_timeouts,
//	            serve.sweep_chunks, batch_*, route_*,
//	            sweep_pairs_per_s, failed_frac
//	runtime     runtime.alloc_mb, runtime.gc_cycles,           run_s, heap_mb       all
//	            trace.overhead_frac, trace.unaccounted_frac
//
// A layer's self time is its time minus the calls it makes into the
// layers below: flitsim's and appsim's are their run spans minus Choose,
// routing's is Choose minus its path lookups (the load estimates it asks
// the simulator for count as routing), paths' is the lookups and fills
// themselves. paths.cache_bytes is the JFPC file's size,
// paths.bytes_per_pair the packed store's resident bytes per pair.
// Per-layer values of a layer a workload does not use read 0.
//
// Reading a traced run: the record's "layers" object gives each layer's
// self seconds per round, the traced and untraced median rounds, what no
// layer accounts for (trace.unaccounted_frac: the benchmark's own loop),
// and the dominant layer. Only vanilla UGAL fills intermediate legs:
// KSP-UGAL chooses among its own pair's candidates
// (internal/routing/mechanisms.go, kspUgalState.Choose), so on a DB
// built over a pattern's pairs it fills nothing
// (TestKSPUGALReadsOnlyOwnPair); paths.lazy_fills reads 0 on
// fig7-adaptive because its DB holds every pair. The committed traces
// are in traces/.
//
// # Output checks
//
// Every run checks, at any seed: packet conservation (flitsim's
// counters against its own recount of buffered packets; appsim's
// delivered plus dropped against the packets the flows inject); every
// stored path is a simple path over graph edges between its pair's
// endpoints, and rEDKSP's paths of a pair share no link unless the pair
// needed the top-up fallback; the cache file reads back to the DB that
// was written; lazy fills equal an eager build of the same pairs; a
// served route is the candidate of its pair it names, in the
// benchmark's own build of the served DB (every 16th response of the
// timed rounds, and every response of one closing exchange after them);
// the sweep reports no failed pair; and every round reproduces the first
// round's simulated statistics. At the pinned seed (1) the digests of the simulated
// statistics (flitsim Results, appsim cycles and packets, model
// MeanNode) and of the path sets must also equal the ones recorded in
// check.go. A failed check makes the run exit 1 with "correct": false.
//
// # Compare mode
//
// compare reads two sets of --out records and prints, per workload and
// end-to-end metric, each side's median and quartiles and a verdict
// taken with BENCHMARK.json's direction and bound: improved (the change
// wins nine tenths of the run pairs and its median moves by more than
// the parent's interquartile range, or every change run beats every
// parent run), unresolved (either side's spread is wider than the
// bound), regressed (the median is worse by more than the bound) or
// unchanged.
package main
