// Command benchjson measures the cycle-level simulator's raw stepping
// throughput — cycles/sec and ns/cycle — across low, mid and saturating
// offered loads on the paper's Table-I small topology (RRG(36,24,16), 288
// terminals), and writes the results as JSON so `make bench-flit` can
// track hot-loop cost across commits:
//
//	go run ./internal/flitsim/benchjson -o BENCH_flitsim.json
//
// The low-load points are the ones that dominate latency-vs-load sweeps
// (most of a sweep's rates sit below saturation), so they are the
// headline numbers for occupancy-proportional stepping. Each load is
// measured twice: the cycle-stepped loop ("current") and the
// event-driven advance ("event_driven", Config.EventDriven). A final
// section steps the paper's RRG(720,24,19) topology (3600 terminals)
// under permutation traffic at low load in both modes — the regime the
// event core exists for, where idle spans and the O(terminals) Bernoulli
// scan dominate the cycle-stepped loop.
//
// When the output file already exists, its oldest run is preserved under
// "baseline" so the committed file always carries a before/after pair;
// pass -rebase to discard the stored baseline and start a fresh one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/cliflags"
	"repro/internal/flitsim"
	"repro/internal/jellyfish"
	"repro/internal/ksp"
	"repro/internal/paths"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/xrand"
)

type point struct {
	Load         float64 `json:"load"`
	NsPerCycle   float64 `json:"ns_per_cycle"`
	CyclesPerSec float64 `json:"cycles_per_sec"`
}

type series struct {
	Label  string  `json:"label"`
	Points []point `json:"points"`
}

// largeRun is the single committed cycle-accurate point on the paper's
// medium topology, in both stepping modes.
type largeRun struct {
	Topology  string `json:"topology"`
	Switches  int    `json:"switches"`
	Terminals int    `json:"terminals"`
	Traffic   string `json:"traffic"`
	Cycle     point  `json:"cycle_stepped"`
	Event     point  `json:"event_driven"`
}

type report struct {
	bench.Env
	Topology     string    `json:"topology"`
	Switches     int       `json:"switches"`
	Terminals    int       `json:"terminals"`
	Selector     string    `json:"selector"`
	Mechanism    string    `json:"mechanism"`
	K            int       `json:"k"`
	WarmupCycles int       `json:"warmup_cycles"`
	Baseline     *series   `json:"baseline,omitempty"`
	Current      series    `json:"current"`
	EventDriven  *series   `json:"event_driven,omitempty"`
	Large        *largeRun `json:"large_topology,omitempty"`
}

func main() {
	out := flag.String("o", "BENCH_flitsim.json", "output file")
	rebase := flag.Bool("rebase", false, "discard the stored baseline and make this run the new one")
	prof := cliflags.ProfileFlags()
	flag.Parse()
	if err := run(*out, *rebase, prof); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out string, rebase bool, prof *cliflags.Profile) error {
	if err := prof.Start(); err != nil {
		return err
	}
	defer prof.Stop()

	const k = 8
	const warmup = 1000
	params := jellyfish.Small
	topo, err := jellyfish.New(params, xrand.New(7))
	if err != nil {
		return err
	}
	pdb := paths.NewDB(topo.G, ksp.Config{Alg: ksp.REDKSP, K: k}, 0)

	rep := report{
		Env:          bench.Stamp(),
		Topology:     fmt.Sprint(params),
		Switches:     params.N,
		Terminals:    topo.NumTerminals(),
		Selector:     "rEDKSP",
		Mechanism:    "ksp-adaptive",
		K:            k,
		WarmupCycles: warmup,
		Current:      series{Label: "event-capable core, cycle-stepped"},
		EventDriven:  &series{Label: "event-driven advance (geometric injection, idle-span jumps)"},
	}

	// The two sparsest loads are the proportionality showcase: below
	// ~1/terminals the network has genuine idle spans, and the event core's
	// throughput detaches from the cycle count entirely (the cycle-stepped
	// loop pays its per-cycle floor regardless).
	for _, load := range []float64{0.0001, 0.001, 0.02, 0.05, 0.10, 0.40, 0.95} {
		cfg := flitsim.Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.Uniform{N: topo.NumTerminals()},
			InjectionRate: load,
			Seed:          42,
		}
		for _, event := range []bool{false, true} {
			cfg.EventDriven = event
			ns := measure(cfg, warmup, 10_000, 5)
			p := point{Load: load, NsPerCycle: ns, CyclesPerSec: 1e9 / ns}
			series := &rep.Current
			mode := "cycle"
			if event {
				series = rep.EventDriven
				mode = "event"
			}
			series.Points = append(series.Points, p)
			fmt.Printf("load %-6.4g %-5s: %10.1f ns/cycle %12.0f cycles/sec\n", load, mode, ns, 1e9/ns)
		}
	}

	large, err := measureLarge()
	if err != nil {
		return err
	}
	rep.Large = large

	keepBaseline(&rep, out, rebase)
	if err := bench.WriteJSON(out, rep); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	return nil
}

// keepBaseline carries the oldest run stored in the previous report at
// path forward as rep's baseline — its baseline, or its current run when
// it has none — so the file always documents a before/after pair for the
// hot loop. rebase, or a missing or unreadable file, leaves rep without
// a baseline, so this run becomes the next one's.
func keepBaseline(rep *report, path string, rebase bool) {
	if rebase {
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var prev report
	if json.Unmarshal(buf, &prev) != nil {
		return
	}
	if prev.Baseline != nil {
		rep.Baseline = prev.Baseline
	} else if len(prev.Current.Points) > 0 {
		rep.Baseline = &prev.Current
	}
}

// measureLarge produces the first committed cycle-accurate point on the
// paper's RRG(720,24,19) medium topology: 3600 terminals under a random
// permutation pattern at offered load 0.02, in both stepping modes. The
// permutation pattern keeps the eager path build tractable — only the
// ~3600 switch pairs the pattern actually uses are computed, instead of
// all 720x719 ordered pairs.
func measureLarge() (*largeRun, error) {
	const load = 0.02
	const k = 8
	params := jellyfish.Medium
	topo, err := jellyfish.New(params, xrand.New(7))
	if err != nil {
		return nil, err
	}
	pattern := traffic.RandomPermutation(topo.NumTerminals(), xrand.New(99))
	var pairs []paths.Pair
	for _, f := range pattern.Flows {
		s, d := topo.SwitchOf(f.Src), topo.SwitchOf(f.Dst)
		if s != d {
			pairs = append(pairs, paths.Pair{Src: s, Dst: d})
		}
	}
	fmt.Printf("building %d path pairs on %v...\n", len(pairs), params)
	pdb := paths.Build(topo.G, ksp.Config{Alg: ksp.REDKSP, K: k}, 0, pairs, 0)

	lr := &largeRun{
		Topology:  fmt.Sprint(params),
		Switches:  params.N,
		Terminals: topo.NumTerminals(),
		Traffic:   pattern.Name,
	}
	for _, event := range []bool{false, true} {
		cfg := flitsim.Config{
			Topo:          topo,
			Paths:         pdb,
			Mechanism:     routing.KSPAdaptive(),
			Traffic:       traffic.NewFixedSampler(pattern),
			InjectionRate: load,
			Seed:          42,
			EventDriven:   event,
		}
		ns := measure(cfg, 1000, 5_000, 3)
		p := point{Load: load, NsPerCycle: ns, CyclesPerSec: 1e9 / ns}
		mode := "cycle"
		if event {
			lr.Event = p
			mode = "event"
		} else {
			lr.Cycle = p
		}
		fmt.Printf("%v load %.2f %-5s: %10.1f ns/cycle %12.0f cycles/sec\n", params, load, mode, ns, 1e9/ns)
	}
	return lr, nil
}

// measure returns the best-of-reps ns/cycle of a fresh simulation,
// warmed up untimed, then stepped for a fixed cycle count.
func measure(cfg flitsim.Config, warmup, cycles, reps int) float64 {
	var s *flitsim.Sim
	sec := bench.Best(reps,
		func() { s = flitsim.New(cfg); s.Step(warmup) },
		func() { s.Step(cycles) })
	return sec * 1e9 / float64(cycles)
}
