package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/serve"
)

// tinyScale runs every workload in well under a second.
var tinyScale = scale{
	name:          "tiny",
	topo:          jellyfish.Params{N: 32, X: 8, Y: 6},
	simTopo:       jellyfish.Params{N: 32, X: 8, Y: 6},
	k:             4,
	adaptiveLoads: []float64{0.3, 0.6},
	warmup:        20,
	sampleCycles:  20,
	samples:       2,
	ugalLoad:      0.3,
	ugalCycles:    5,
	bytesPerRank:  26 * 1500,
	serveTopo:     serve.TopoParams{N: 20, X: 8, Y: 5},
	batchPairs:    16,
	batches:       3,
	routes:        20,
	sweepPairs:    100,
}

func runTiny(t *testing.T, w workload, seed uint64, trace bool) *record {
	t.Helper()
	rec, err := run(w, tinyScale, options{seed: seed, seconds: 0.01, trace: trace, workdir: t.TempDir(), log: &bytes.Buffer{}})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", w.name, seed, trace, err)
	}
	return rec
}

// TestWorkloadsSmoke runs every workload at tiny scale, untraced and
// traced, at the pinned seed and one other: every output check passes
// and every catalogued metric is reported.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, seed := range []uint64{pinnedSeed, 7} {
				for _, trace := range []bool{false, true} {
					rec := runTiny(t, w, seed, trace)
					if !rec.Result.Correct {
						t.Errorf("seed %d trace %v: checks failed: %v", seed, trace, rec.Problems)
					}
					if rec.Result.Attempted < 1 || rec.Result.Failed != 0 {
						t.Errorf("seed %d trace %v: attempted %d failed %d", seed, trace, rec.Result.Attempted, rec.Result.Failed)
					}
					defs := endToEnd
					if trace {
						defs = perLayer
					}
					if len(rec.Result.Metrics) != len(defs) {
						t.Errorf("seed %d trace %v: %d metrics, catalog has %d", seed, trace, len(rec.Result.Metrics), len(defs))
					}
					for _, d := range defs {
						if _, ok := rec.Result.Metrics[d.name]; !ok {
							t.Errorf("seed %d trace %v: metric %s missing", seed, trace, d.name)
						}
					}
					if !trace {
						for _, d := range endToEnd {
							if v := rec.Result.Metrics[d.name].Value; v <= 0 {
								t.Errorf("seed %d: end-to-end %s = %v, want > 0", seed, d.name, v)
							}
						}
					} else if rec.Layers == nil || len(rec.Spans) == 0 {
						t.Errorf("seed %d: traced run has no layer account or spans", seed)
					}
				}
			}
		})
	}
}

// TestTracedLayers checks that the traced run attributes each workload's
// time to the layers it exercises.
func TestTracedLayers(t *testing.T) {
	want := map[string][]string{
		"fig7-adaptive": {"flitsim.packets", "routing.chooses", "paths.lookups", "paths.build_s"},
		"fig8-ugal":     {"flitsim.packets", "paths.lazy_fills", "paths.fill_pairs_per_s"},
		"table5-app":    {"appsim.packets", "paths.cache_bytes", "paths.cache_read_s", "paths.build_pairs_per_s"},
		"serve-mixed":   {"serve.topo_load_s", "batch_lookups_per_s", "route_p50_us", "serve.sweep_chunks"},
	}
	for _, w := range workloads {
		rec := runTiny(t, w, pinnedSeed, true)
		for _, name := range want[w.name] {
			if rec.Result.Metrics[name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, name, rec.Result.Metrics[name].Value)
			}
		}
	}
}

// TestKSPUGALReadsOnlyOwnPair runs KSP-UGAL on a DB built over the
// pattern's pairs alone: it looks its pairs up and fills no other pair,
// unlike vanilla UGAL, whose intermediate legs are what fig8-ugal fills.
func TestKSPUGALReadsOnlyOwnPair(t *testing.T) {
	env := &runEnv{sc: tinyScale, seed: pinnedSeed}
	b, err := newPermBase(env, tinyScale.simTopo, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := paths.Build(b.topo.G, b.cfg, b.pathSeed, b.pairs, 0)
	for _, c := range []struct {
		mech  routing.Mechanism
		fills bool
	}{{routing.KSPUGAL(), false}, {routing.VanillaUGAL(), true}} {
		prov, m, probe := probeSim(&tracer{}, db, b.pairs, c.mech)
		sim, err := flitsim.NewSim(b.simConfig(prov, m, 0.6, 0))
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		if probe.paths.lookups == 0 || (probe.paths.fills > 0) != c.fills {
			t.Errorf("%s: %d lookups, %d lazy fills", c.mech.Name(), probe.paths.lookups, probe.paths.fills)
		}
	}
}

// TestPerturbedDigestCaught pins a wrong digest and expects the run to
// fail its checks.
func TestPerturbedDigestCaught(t *testing.T) {
	w, _ := workloadByName("fig7-adaptive")
	key := "tiny/fig7-adaptive"
	saved := pinnedDigests[key]
	defer func() { pinnedDigests[key] = saved }()

	bad := saved
	bad.Sim = flipDigit(saved.Sim)
	pinnedDigests[key] = bad
	if rec := runTiny(t, w, pinnedSeed, false); rec.Result.Correct {
		t.Fatal("a perturbed simulated-statistics digest passed the checks")
	}
	bad = saved
	bad.Paths = flipDigit(saved.Paths)
	pinnedDigests[key] = bad
	if rec := runTiny(t, w, pinnedSeed, false); rec.Result.Correct {
		t.Fatal("a perturbed path-set digest passed the checks")
	}
	// At another seed only the invariants apply.
	if rec := runTiny(t, w, pinnedSeed+1, false); !rec.Result.Correct {
		t.Fatalf("unpinned seed failed: %v", rec.Problems)
	}
}

func flipDigit(s string) string {
	if s == "" {
		return "0"
	}
	b := []byte(s)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Fatalf("quartiles = %v %v %v, want 1 2 4", q1, med, q3)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{0.6, 1.4, 0.7, 1.3, 1.0, 0.65, 1.35, 1.0, 0.8, 1.2}
	cases := []struct {
		name        string
		old, new    []float64
		lowerBetter bool
		want        string
	}{
		{"same", base, scaled(1.0), true, unchanged},
		{"slightly slower within bound", base, scaled(1.05), true, unchanged},
		{"much slower", base, scaled(1.30), true, regressed},
		{"faster", base, scaled(0.80), true, improved},
		{"higher is better and it rose", base, scaled(1.30), false, improved},
		{"higher is better and it fell", base, scaled(0.80), false, regressed},
		{"noisy parent", noisy, scaled(1.05), true, unresolved},
		{"noisy but every run better", noisy, scaled(0.5), true, improved},
	}
	for _, c := range cases {
		if got := judge(c.old, c.new, c.lowerBetter, 0.10); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareMode(t *testing.T) {
	dir := t.TempDir()
	write := func(side string, i int, runS float64) {
		rec := record{Workload: "fig7-adaptive", Seed: uint64(i), Result: result{Correct: true, Attempted: 1,
			Metrics: map[string]metricValue{"run_s": {runS, "s"}, "setup_s": {1, "s"}, "heap_mb": {10, "MB"}}}}
		if err := os.MkdirAll(filepath.Join(dir, side), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := writeJSON(filepath.Join(dir, side, string(rune('a'+i))+".json"), rec); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		write("old", i, 1+0.01*float64(i%3))
		write("new", i, 1.5+0.01*float64(i%3))
	}
	var out, errb bytes.Buffer
	code := compareMain([]string{"-bench", filepath.Join("..", "BENCHMARK.json"), filepath.Join(dir, "old"), filepath.Join(dir, "new")}, &out, &errb)
	if code != 0 {
		t.Fatalf("compare exited %d: %s", code, errb.String())
	}
	for _, want := range []string{"run_s", regressed, "setup_s", unchanged} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalog in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalog %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s/%s, catalog %s/%s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
