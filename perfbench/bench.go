package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
)

// metricDef names a reported metric and its unit. endToEnd and
// perLayer are the catalog BENCHMARK.json lists; a test keeps the two
// in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"heap_mb", "MB"},
}

var perLayer = []metricDef{
	{"jellyfish.new_s", "s"},
	{"graph.metrics_s", "s"},
	{"paths.build_s", "s"},
	{"paths.build_pairs_per_s", "1/s"},
	{"paths.lookups", "count"},
	{"paths.lookup_s", "s"},
	{"paths.lazy_fills", "count"},
	{"paths.fill_pairs_per_s", "1/s"},
	{"paths.cache_write_s", "s"},
	{"paths.cache_read_s", "s"},
	{"paths.cache_bytes", "bytes"},
	{"paths.bytes_per_pair", "bytes"},
	{"routing.chooses", "count"},
	{"routing.choose_self_ns", "ns"},
	{"flitsim.self_s", "s"},
	{"flitsim.cycles_per_s", "1/s"},
	{"flitsim.ns_per_hop", "ns"},
	{"flitsim.packets", "count"},
	{"appsim.self_s", "s"},
	{"appsim.ns_per_hop", "ns"},
	{"appsim.packets", "count"},
	{"model.throughput_s", "s"},
	{"serve.topo_load_s", "s"},
	{"serve.server_p50_us", "us"},
	{"serve.server_p99_us", "us"},
	{"serve.shed", "count"},
	{"serve.io_timeouts", "count"},
	{"serve.sweep_chunks", "count"},
	{"batch_lookups_per_s", "1/s"},
	{"batch_p50_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"route_p50_us", "us"},
	{"route_p99_us", "us"},
	{"sweep_pairs_per_s", "1/s"},
	{"failed_frac", "frac"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unaccounted_frac", "frac"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full account of a run: the result plus what is needed
// to reproduce and compare it.
type record struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    bool     `json:"trace"`
	Scale    string   `json:"scale"`
	Env      envStamp `json:"env"`
	Result   result   `json:"result"`
	Digests  digests  `json:"digests"`
	Problems []string `json:"problems,omitempty"`
	// RoundsS are the measured rounds' durations; with Trace set, the
	// untraced ones (the traced ones are in Layers).
	RoundsS []float64 `json:"rounds_s"`
	SetupS  []float64 `json:"setup_s"`
	Layers  *layers   `json:"layers,omitempty"`
	Spans   []span    `json:"spans,omitempty"`
}

// layers is a traced run's account of where a round's time went: the
// self time of each layer per round, which with the unaccounted rest
// adds up to the traced round.
type layers struct {
	UntracedRoundS float64            `json:"untraced_round_s"`
	TracedRoundS   float64            `json:"traced_round_s"`
	TracedRoundsS  []float64          `json:"traced_rounds_s"`
	SelfS          map[string]float64 `json:"self_s_per_round"`
	UnaccountedS   float64            `json:"unaccounted_s_per_round"`
	Dominant       string             `json:"dominant"`
}

type options struct {
	seed    uint64
	seconds float64
	trace   bool
	workdir string
	log     io.Writer
}

// run sets a workload up and measures it. An error means the run could
// not be made at all; failed output checks are reported in the record.
func run(w workload, sc scale, o options) (*record, error) {
	rec := &record{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Scale: sc.name, Env: stamp()}
	env := &runEnv{sc: sc, seed: o.seed, seconds: o.seconds, workdir: o.workdir}
	chk := &checker{}
	var (
		inst instance
		tr   *tracer
		err  error
	)
	if o.trace {
		tr = &tracer{}
		runtime.GC()
		sp := tr.begin("setup")
		t0 := nanotime()
		inst, err = w.setup(env, tr)
		rec.SetupS = []float64{float64(nanotime()-t0) / 1e9}
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
	} else {
		var d float64
		if inst, d, err = timedSetup(w, env); err != nil {
			return nil, err
		}
		rec.SetupS = []float64{d}
	}
	defer inst.close()
	fmt.Fprintf(o.log, "%s: set up in %.3fs, measuring for %gs\n", w.name, median(rec.SetupS), o.seconds)

	var att, failed int64
	// One warm-up round first: the heap grows to its working size and
	// the first page faults happen outside the timed rounds.
	runtime.GC()
	warm, err := inst.round(chk, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("%s warm-up round: %w", w.name, err)
	}
	att, failed = warm.attempted, warm.failed
	// measure repeats rounds for secs seconds. With alternate set, every
	// other round is traced, so traced and untraced rounds see the same
	// machine and the ratio of their medians is what tracing costs.
	lc := &layerCounts{}
	var allocMB, gcs float64
	measure := func(secs float64, alternate bool) (untraced, traced []float64, err error) {
		start := nanotime()
		for i := 0; i == 0 || float64(nanotime()-start)/1e9 < secs || (alternate && len(traced) == 0); i++ {
			var (
				rtr      *tracer
				rlc      *layerCounts
				ms0, ms1 runtime.MemStats
			)
			if alternate && i%2 == 1 {
				rtr, rlc = tr, lc
			}
			runtime.GC()
			if rlc != nil {
				runtime.ReadMemStats(&ms0)
			}
			sp := rtr.begin("round")
			st, err := inst.round(chk, rtr, rlc)
			rtr.end(sp)
			att += st.attempted
			failed += st.failed
			if err != nil {
				return nil, nil, fmt.Errorf("%s round %d: %w", w.name, i, err)
			}
			if rlc == nil {
				untraced = append(untraced, float64(st.ns)/1e9)
				if !alternate {
					// One more setup per round, so setup_s is a median
					// over the same stretch of time as run_s.
					extra, d, err := timedSetup(w, env)
					if err != nil {
						return nil, nil, err
					}
					extra.close()
					rec.SetupS = append(rec.SetupS, d)
				}
				continue
			}
			runtime.ReadMemStats(&ms1)
			allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
			gcs += float64(ms1.NumGC - ms0.NumGC)
			rlc.rounds++
			traced = append(traced, float64(st.ns)/1e9)
		}
		return untraced, traced, nil
	}

	metrics := map[string]float64{}
	if !o.trace {
		heapMB := liveHeapMB()
		if rec.RoundsS, _, err = measure(o.seconds, false); err != nil {
			return nil, err
		}
		metrics["setup_s"] = median(rec.SetupS)
		metrics["run_s"] = median(rec.RoundsS)
		metrics["heap_mb"] = max(heapMB, liveHeapMB())
	} else {
		untraced, traced, err := measure(o.seconds, true)
		if err != nil {
			return nil, err
		}
		rec.RoundsS = untraced
		rec.Layers = layerMetrics(metrics, tr, lc, untraced, traced)
		metrics["runtime.alloc_mb"] = allocMB / float64(lc.rounds)
		metrics["runtime.gc_cycles"] = gcs / float64(lc.rounds)
		metrics["failed_frac"] = safeDiv(float64(failed), float64(att))
		if err := inst.layerMetrics(metrics); err != nil {
			return nil, err
		}
		metrics["paths.build_pairs_per_s"] = safeDiv(metrics["paths.build_pairs"], metrics["paths.build_s"])
		rec.Spans = tr.spans
	}

	dg, err := inst.finish(chk)
	if err != nil {
		return nil, fmt.Errorf("%s checks: %w", w.name, err)
	}
	checkDigests(chk, sc.name+"/"+w.name, o.seed, dg)
	rec.Digests = dg
	rec.Problems = chk.problems
	rec.Result = result{Correct: chk.ok(), Attempted: att, Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		rec.Result.Metrics[d.name] = metricValue{Value: metrics[d.name], Unit: d.unit}
	}
	return rec, nil
}

// timedSetup sets the workload up from a collected heap and returns the
// instance and the setup's duration.
func timedSetup(w workload, env *runEnv) (instance, float64, error) {
	runtime.GC()
	t0 := nanotime()
	inst, err := w.setup(env, nil)
	d := float64(nanotime()-t0) / 1e9
	if err != nil {
		return nil, 0, fmt.Errorf("%s setup: %w", w.name, err)
	}
	return inst, d, nil
}

// layerMetrics turns the traced rounds' counters and spans into the
// per-layer metrics (per round where they count work) and the account of
// each layer's self time.
func layerMetrics(m map[string]float64, tr *tracer, lc *layerCounts, untraced, traced []float64) *layers {
	r := float64(lc.rounds)
	s := func(ns int64) float64 { return float64(ns) / 1e9 }

	m["jellyfish.new_s"] = tr.total("jellyfish.new")
	m["graph.metrics_s"] = tr.total("graph.metrics")
	m["paths.build_s"] = tr.total("paths.build")
	m["paths.cache_write_s"] = tr.total("paths.cache_write")
	m["paths.cache_read_s"] = tr.total("paths.cache_read")
	m["serve.topo_load_s"] = tr.total("serve.topo_load")

	pathsNS := lc.lookupNS + lc.fillNS
	flitSelf := lc.simNS - lc.flitChooseNS
	appSelf := lc.appNS - lc.appChooseNS
	m["paths.lookups"] = float64(lc.lookups) / r
	m["paths.lookup_s"] = s(lc.lookupNS) / r
	m["paths.lazy_fills"] = float64(lc.fills) / r
	m["paths.fill_pairs_per_s"] = safeDiv(float64(lc.fills), s(lc.fillNS))
	m["routing.chooses"] = float64(lc.chooses) / r
	m["routing.choose_self_ns"] = safeDiv(float64(lc.routingNS), float64(lc.chooses))
	m["flitsim.self_s"] = s(flitSelf) / r
	m["flitsim.cycles_per_s"] = safeDiv(float64(lc.simCycles), s(lc.simNS))
	m["flitsim.ns_per_hop"] = safeDiv(float64(flitSelf), float64(lc.flitHops))
	m["flitsim.packets"] = float64(lc.simPackets) / r
	m["appsim.self_s"] = s(appSelf) / r
	m["appsim.ns_per_hop"] = safeDiv(float64(appSelf), float64(lc.appHops))
	m["appsim.packets"] = float64(lc.appPackets) / r
	m["model.throughput_s"] = s(lc.modelNS) / r

	var tracedSum float64
	for _, t := range traced {
		tracedSum += t
	}
	L := &layers{
		UntracedRoundS: median(untraced),
		TracedRoundS:   median(traced),
		TracedRoundsS:  traced,
		SelfS: map[string]float64{
			"flitsim": s(flitSelf) / r,
			"appsim":  s(appSelf) / r,
			"routing": s(lc.routingNS) / r,
			"paths":   s(pathsNS) / r,
			"model":   s(lc.modelNS) / r,
			"serve":   s(lc.serveNS) / r,
		},
	}
	mean := tracedSum / r
	L.UnaccountedS = mean
	var names []string
	for name, v := range L.SelfS {
		L.UnaccountedS -= v
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if L.Dominant == "" || L.SelfS[name] > L.SelfS[L.Dominant] {
			L.Dominant = name
		}
	}
	m["trace.overhead_frac"] = safeDiv(L.TracedRoundS, L.UntracedRoundS) - 1
	m["trace.unaccounted_frac"] = safeDiv(L.UnaccountedS, mean)
	return L
}
