package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// Verdicts, per §6 and §8 of the method the benchmark follows: a gain
// needs the change to win nine tenths of the run pairs by more than the
// parent's own spread; a loss is a median worse by more than the bound;
// a spread wider than the bound settles nothing.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares a metric's runs on the parent (old) and the change
// (new). lowerBetter gives the metric's direction, bound the share of the
// parent's median it may worsen by.
func judge(old, new []float64, lowerBetter bool, bound float64) string {
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(new)

	pairs := min(len(old), len(new))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(new[i], old[i]) {
			wins++
		}
	}
	allBetter := true
	for _, n := range new {
		for _, o := range old {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	if pairs > 0 && wins*10 >= pairs*9 && better(nmed, omed) && math.Abs(nmed-omed) > oq3-oq1 {
		return improved
	}
	if allBetter {
		return improved
	}
	if (oq3-oq1)/math.Abs(omed) > bound || (nq3-nq1)/math.Abs(nmed) > bound {
		return unresolved
	}
	worse := (nmed - omed) / math.Abs(omed)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return unchanged
}

// compareMain reads two sets of run records (files written with --out,
// or directories of them) and prints, per workload and end-to-end
// metric, each side's median and quartiles and a verdict.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specFile := fs.String("bench", "BENCHMARK.json", "benchmark definition giving each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare [-bench BENCHMARK.json] OLD NEW  (record files or directories of them)")
		return 2
	}
	var spec benchSpec
	b, err := os.ReadFile(*specFile)
	if err == nil {
		err = json.Unmarshal(b, &spec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	old, err := loadRecords(fs.Arg(0))
	if err == nil {
		var nw map[string][]record
		if nw, err = loadRecords(fs.Arg(1)); err == nil {
			err = writeComparison(stdout, spec, old, nw)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench compare:", err)
		return 2
	}
	return 0
}

// loadRecords reads untraced run records, grouped by workload in file
// name order.
func loadRecords(path string) (map[string][]record, error) {
	files := []string{path}
	if fi, err := os.Stat(path); err != nil {
		return nil, err
	} else if fi.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	out := map[string][]record{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Workload == "" || r.Trace {
			continue
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", path)
	}
	return out, nil
}

func writeComparison(w io.Writer, spec benchSpec, old, nw map[string][]record) error {
	for _, side := range []map[string][]record{old, nw} {
		for _, rs := range side {
			for _, r := range rs {
				if r.Env.Oversubscribed {
					fmt.Fprintf(w, "warning: a %s run had GOMAXPROCS %d > NumCPU %d\n", r.Workload, r.Env.GOMAXPROCS, r.Env.NumCPU)
				}
				if !r.Result.Correct {
					fmt.Fprintf(w, "warning: a %s run (seed %d) failed its output checks\n", r.Workload, r.Seed)
				}
			}
		}
	}
	var names []string
	for name := range old {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median [q1, q3] (n)\tnew median [q1, q3] (n)\tdelta\tbound\tverdict")
	for _, name := range names {
		if _, ok := nw[name]; !ok {
			fmt.Fprintf(tw, "%s\t\t\t(no new runs)\t\t\t\n", name)
			continue
		}
		for _, m := range spec.EndToEnd {
			ov, nv := values(old[name], m.Name), values(nw[name], m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			oq1, omed, oq3 := quartiles(ov)
			nq1, nmed, nq3 := quartiles(nv)
			fmt.Fprintf(tw, "%s\t%s\t%.4g [%.4g, %.4g] (%d)\t%.4g [%.4g, %.4g] (%d)\t%+.1f%%\t%.0f%%\t%s\n",
				name, m.Name, omed, oq1, oq3, len(ov), nmed, nq1, nq3, len(nv),
				100*(nmed-omed)/math.Abs(omed), 100*m.Bound,
				judge(ov, nv, strings.EqualFold(m.Better, "lower"), m.Bound))
		}
	}
	return tw.Flush()
}

func values(rs []record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
