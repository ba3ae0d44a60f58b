package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cliflags"
	"repro/internal/graph"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/seeds"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/xrand"
)

// serveLimits returns cmd/jfserve's flag defaults for the daemon's
// limits. The flags register on the never-parsed global FlagSet, so
// their values stay the defaults; once per process, because a flag
// cannot be registered twice.
var serveLimits = sync.OnceValue(cliflags.ServeLimitFlags)

// serveMixed drives an in-process jfserve over a Unix socket: one
// binary connection sending routes-batch frames and one JSON connection
// sending single route calls, concurrently and each waiting for its
// reply (a closed loop of two clients), then one binary sweep.
type serveMixed struct {
	sc   scale
	seed uint64
	srv  *serve.Server
	done chan error
	// ctx bounds every client call of the instance's life. It is one
	// context, cancelled only by close: the client expires a connection's
	// deadline from a watcher goroutine when a call's context is
	// cancelled, and that watcher can still fire after the call has
	// returned, failing the connection's next call with an i/o timeout.
	ctx     context.Context
	cancel  context.CancelFunc
	sock    string
	key     string
	bin     *client.Client
	js      *client.Client
	batches [][][2]int32
	routes  [][2]int32
	sweeps  int

	// ref is the benchmark's own copy of the served path DB, built
	// after setup, for checking served routes.
	ref     *paths.DB
	refTopo *jellyfish.Topology
	refCfg  ksp.Config

	// Per-call latencies and phase walls of the traced rounds.
	batchLat, routeLat []float64
	batchNS, sweepNS   int64
	batchN, sweepN     int64
	sweepChunks        int64
	tracedRounds       int
}

func (w *serveMixed) topoParams() serve.TopoParams {
	p := w.sc.serveTopo
	p.Selector = "rEDKSP"
	p.K = w.sc.k
	// The daemon reads seed 0 as its default, 1.
	p.Seed = max(w.seed, 1)
	p.Mechanism = "ksp-adaptive"
	p.Estimator = "link-load"
	return p
}

const batchPool = 64

func setupServe(env *runEnv, tr *tracer) (instance, error) {
	lim := serveLimits()
	w := &serveMixed{sc: env.sc, seed: env.seed}
	// A hung daemon fails the run instead of hanging it.
	life := time.Duration((2*env.seconds + 120) * float64(time.Second))
	w.ctx, w.cancel = context.WithTimeout(context.Background(), life)
	w.srv = serve.NewServer(serve.Options{
		Stripes:        *lim.Stripes,
		MaxConns:       *lim.MaxConns,
		MaxInFlight:    *lim.MaxInFlight,
		MaxSweeps:      *lim.MaxSweeps,
		ReadTimeout:    *lim.ReadTimeout,
		WriteTimeout:   *lim.WriteTimeout,
		HandlerTimeout: *lim.HandlerTimeout,
	})
	sp := tr.begin("serve.topo_load")
	res, err := w.srv.LoadTopology(w.topoParams())
	tr.end(sp)
	if err != nil {
		w.close()
		return nil, fmt.Errorf("topo-load: %w", err)
	}
	w.key = res.Key
	if err := os.MkdirAll(env.workdir, 0o755); err != nil {
		w.close()
		return nil, err
	}
	w.sock = filepath.Join(env.workdir, fmt.Sprintf("serve-%d-%d.sock", os.Getpid(), instanceSeq.Add(1)))
	os.Remove(w.sock)
	l, err := net.Listen("unix", w.sock)
	if err != nil {
		w.close()
		return nil, err
	}
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(l) }()
	if w.bin, err = client.DialBinary(w.ctx, "unix", w.sock); err != nil {
		w.close()
		return nil, fmt.Errorf("dial binary: %w", err)
	}
	if w.js, err = client.Dial(w.ctx, "unix", w.sock); err != nil {
		w.close()
		return nil, fmt.Errorf("dial json: %w", err)
	}

	// The query streams: seeded uniform pairs over the served switches.
	n := res.Switches
	rng := xrand.NewPair(xrand.Mix64(env.seed^0x7365727665), 0) // "serve"
	pair := func() [2]int32 {
		s := rng.IntN(n)
		return [2]int32{int32(s), int32(rng.IntNExcept(n, s))}
	}
	// The batch frames cycle through a pool of batchPool distinct pair
	// lists, so generating them stays a small part of setup.
	pool := make([][][2]int32, min(batchPool, env.sc.batches))
	for i := range pool {
		pool[i] = make([][2]int32, env.sc.batchPairs)
		for j := range pool[i] {
			pool[i][j] = pair()
		}
	}
	w.batches = make([][][2]int32, env.sc.batches)
	for i := range w.batches {
		w.batches[i] = pool[i%len(pool)]
	}
	w.routes = make([][2]int32, env.sc.routes)
	for i := range w.routes {
		w.routes[i] = pair()
	}
	return w, nil
}

// reference builds the benchmark's own copy of the served DB, with the
// daemon's seed derivation, and checks that the daemon keys it the same.
func (w *serveMixed) reference(c *checker) error {
	if w.ref != nil {
		return nil
	}
	tp := w.topoParams()
	params := jellyfish.Params{N: tp.N, X: tp.X, Y: tp.Y}
	if tp.Topo != "" {
		var err error
		if params, err = jellyfish.ByName(tp.Topo); err != nil {
			return err
		}
	}
	topo, err := jellyfish.New(params, seeds.TopoRNG(tp.Seed, 0))
	if err != nil {
		return err
	}
	w.refCfg = ksp.Config{Alg: ksp.REDKSP, K: tp.K}
	pathSeed := seeds.PathSeed(tp.Seed, 0, ksp.REDKSP)
	if key := serve.TopoKey(topo.G, w.refCfg, pathSeed); key != w.key {
		c.failf("serve-mixed: daemon keyed the topology %q, the reference %q", w.key, key)
	}
	w.refTopo = topo
	w.ref = paths.BuildAllPairs(topo.G, w.refCfg, pathSeed, 0)
	return nil
}

// checkRoute checks that a served route is the candidate of its pair it
// claims to be.
func (w *serveMixed) checkRoute(c *checker, what string, src, dst int32, r *serve.RouteResult) {
	if r == nil {
		c.failf("serve-mixed %s: %d->%d has no route", what, src, dst)
		return
	}
	ps := w.ref.Paths(graph.NodeID(src), graph.NodeID(dst))
	if r.Index < 0 || r.Index >= len(ps) || !sameNodes(r.Path, ps[r.Index]) {
		c.failf("serve-mixed %s: %d->%d served %v as candidate %d, not one of the pair's %d candidates",
			what, src, dst, r.Path, r.Index, len(ps))
	}
	if r.Hops != len(r.Path)-1 {
		c.failf("serve-mixed %s: route %v reports %d hops", what, r.Path, r.Hops)
	}
}

// refused reports a request the daemon shed with the overloaded code:
// a failed operation, not a broken run.
func refused(err error) bool {
	var re *client.RemoteError
	return errors.As(err, &re) && re.Code == serve.CodeOverloaded
}

func sameNodes(a []int32, b graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// exchange is one round's traffic: the two connections' closed loops
// run concurrently, then the sweep. It keeps every keep-th response for
// checking; the rest are dropped as they arrive, as a client would.
type exchange struct {
	batches, routes []int // indices of the kept responses
	batchRes        []serve.BatchResult
	routeRes        []serve.RouteResult
	chunks          []serve.SweepChunk
	start           serve.SweepStart
	done            serve.SweepDone
	swept           int // entries over all chunks, kept or not
	refused         int64

	batchLat, routeLat     []float64 // per call, only when timed
	bStart, bEnd, rStart   int64
	rEnd, sStart, sEnd, t0 int64
}

func (w *serveMixed) exchange(keep int, timeCalls bool) (*exchange, error) {
	ctx := w.ctx
	ex := &exchange{}
	var (
		wg                 sync.WaitGroup
		batchErr, routeErr error
		batchRef, routeRef int64
	)
	ex.t0 = nanotime()
	wg.Add(2)
	go func() {
		defer wg.Done()
		ex.bStart = nanotime()
		for i, prs := range w.batches {
			c0 := nanotime()
			res, err := w.bin.RoutesBatch(ctx, w.key, prs)
			if timeCalls {
				ex.batchLat = append(ex.batchLat, float64(nanotime()-c0)/1e6)
			}
			if refused(err) {
				batchRef++
				continue
			}
			if err != nil {
				batchErr = fmt.Errorf("routes-batch: %w", err)
				return
			}
			if i%keep == 0 {
				ex.batches = append(ex.batches, i)
				ex.batchRes = append(ex.batchRes, res)
			}
		}
		ex.bEnd = nanotime()
	}()
	go func() {
		defer wg.Done()
		ex.rStart = nanotime()
		for i, pr := range w.routes {
			c0 := nanotime()
			res, err := w.js.Route(ctx, w.key, pr[0], pr[1])
			if timeCalls {
				ex.routeLat = append(ex.routeLat, float64(nanotime()-c0)/1e3)
			}
			if refused(err) {
				routeRef++
				continue
			}
			if err != nil {
				routeErr = fmt.Errorf("route: %w", err)
				return
			}
			if i%keep == 0 {
				ex.routes = append(ex.routes, i)
				ex.routeRes = append(ex.routeRes, res)
			}
		}
		ex.rEnd = nanotime()
	}()
	wg.Wait()
	ex.refused = batchRef + routeRef
	if err := errors.Join(batchErr, routeErr); err != nil {
		return nil, err
	}

	ex.sStart = nanotime()
	var err error
	ex.start, ex.done, err = w.bin.Sweep(ctx, w.key,
		serve.SweepParams{Count: w.sc.sweepPairs, Seed: xrand.Mix64(w.seed ^ uint64(w.sweeps))},
		func(ch serve.SweepChunk) error {
			if ch.Seq%keep == 0 {
				ex.chunks = append(ex.chunks, ch)
			}
			ex.swept += len(ch.Entries)
			return nil
		})
	ex.sEnd = nanotime()
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	w.sweeps++
	return ex, nil
}

// check checks the kept responses of an exchange and returns the number
// of failed operations.
func (w *serveMixed) check(c *checker, ex *exchange) (int64, error) {
	if err := w.reference(c); err != nil {
		return 0, err
	}
	failed := ex.refused
	for k, res := range ex.batchRes {
		prs := w.batches[ex.batches[k]]
		if len(res.Entries) != len(prs) {
			c.failf("serve-mixed: batch of %d pairs answered %d entries", len(prs), len(res.Entries))
			continue
		}
		for j, e := range res.Entries {
			if e.Err != "" {
				failed++
				continue
			}
			w.checkRoute(c, "routes-batch", prs[j][0], prs[j][1], e.Route)
		}
	}
	for k := range ex.routeRes {
		pr := w.routes[ex.routes[k]]
		w.checkRoute(c, "route", pr[0], pr[1], &ex.routeRes[k])
	}
	if ex.done.Failed != 0 {
		c.failf("serve-mixed: sweep reported %d failed pairs", ex.done.Failed)
		failed++
	}
	if ex.done.Chunks != ex.start.Chunks {
		c.failf("serve-mixed: sweep acknowledged %d chunks, done says %d", ex.start.Chunks, ex.done.Chunks)
	}
	if ex.swept != w.sc.sweepPairs {
		c.failf("serve-mixed: sweep of %d pairs streamed %d entries", w.sc.sweepPairs, ex.swept)
	}
	for _, ch := range ex.chunks {
		for _, e := range ch.Entries {
			if e.Route == nil || len(e.Route.Path) < 2 {
				c.failf("serve-mixed: sweep entry without a route (%q)", e.Err)
				continue
			}
			p := e.Route.Path
			w.checkRoute(c, "sweep", p[0], p[len(p)-1], e.Route)
		}
	}
	return failed, nil
}

// checkEvery is how often a timed round keeps a response for checking;
// finish checks one whole exchange.
const checkEvery = 16

func (w *serveMixed) round(c *checker, tr *tracer, lc *layerCounts) (roundStats, error) {
	var st roundStats
	ex, err := w.exchange(checkEvery, tr != nil)
	if err != nil {
		return st, err
	}
	st.ns = ex.sEnd - ex.t0
	st.attempted = int64(len(w.batches) + len(w.routes) + 1)
	if tr != nil {
		tr.add("serve.batch_loop", ex.bStart, ex.bEnd)
		tr.add("serve.route_loop", ex.rStart, ex.rEnd)
		tr.add("serve.sweep", ex.sStart, ex.sEnd)
		w.batchLat = append(w.batchLat, ex.batchLat...)
		w.routeLat = append(w.routeLat, ex.routeLat...)
		w.batchNS += ex.bEnd - ex.bStart
		w.batchN += int64(len(w.batches) * w.sc.batchPairs)
		w.sweepNS += ex.sEnd - ex.sStart
		w.sweepN += int64(ex.start.TotalPairs)
		w.sweepChunks += int64(ex.done.Chunks)
		w.tracedRounds++
		lc.serveNS += st.ns
	}
	st.failed, err = w.check(c, ex)
	return st, err
}

func (w *serveMixed) finish(c *checker) (digests, error) {
	ex, err := w.exchange(1, false)
	if err != nil {
		return digests{}, err
	}
	if _, err := w.check(c, ex); err != nil {
		return digests{}, err
	}
	dump, err := dumpDB(w.ref)
	if err != nil {
		return digests{}, err
	}
	checkPathSets(c, "serve-mixed", w.refTopo.G, w.refCfg, w.ref.Fallbacks(), dump)
	// Adaptive choices depend on how the two connections interleave, so
	// only the served path sets are pinned.
	return digests{Paths: hashBytes(dump)}, nil
}

func (w *serveMixed) layerMetrics(m map[string]float64) error {
	stats, err := w.bin.Stats(w.ctx)
	if err != nil {
		return fmt.Errorf("stats: %w", err)
	}
	health, err := w.bin.Health(w.ctx)
	if err != nil {
		return fmt.Errorf("health: %w", err)
	}
	m["serve.server_p50_us"] = stats.Latency.P50Micros
	m["serve.server_p99_us"] = stats.Latency.P99Micros
	m["serve.shed"] = float64(health.Shed)
	m["serve.io_timeouts"] = float64(health.IOTimeouts)
	m["batch_lookups_per_s"] = safeDiv(float64(w.batchN), float64(w.batchNS)/1e9)
	m["batch_p50_ms"] = percentile(w.batchLat, 0.50)
	m["batch_p99_ms"] = percentile(w.batchLat, 0.99)
	m["route_p50_us"] = percentile(w.routeLat, 0.50)
	m["route_p99_us"] = percentile(w.routeLat, 0.99)
	m["sweep_pairs_per_s"] = safeDiv(float64(w.sweepN), float64(w.sweepNS)/1e9)
	m["serve.sweep_chunks"] = safeDiv(float64(w.sweepChunks), float64(w.tracedRounds))
	return nil
}

func (w *serveMixed) close() {
	if w.bin != nil {
		w.bin.Close()
	}
	if w.js != nil {
		w.js.Close()
	}
	w.cancel()
	w.srv.Stop()
	if w.done != nil {
		<-w.done
	}
	os.Remove(w.sock)
}
