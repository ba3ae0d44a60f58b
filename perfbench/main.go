package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain runs one workload and prints its result as the last line of
// stdout. It returns 0 when every output check passed, 1 when a check
// failed (the result line then says "correct": false) and 2 when no
// result could be produced.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", pinnedSeed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics from untraced rounds; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the full run record (environment, digests, rounds, layer account, spans) to this file")
	workdir := fs.String("workdir", ".bench_build", "directory for the run's cache file and socket")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --trace 0|1 and --seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	env := stamp()
	if env.Oversubscribed {
		fmt.Fprintf(stderr, "perfbench: warning: GOMAXPROCS %d exceeds NumCPU %d; parallel figures measure time slicing\n", env.GOMAXPROCS, env.NumCPU)
	}
	rec, err := run(w, fullScale, options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, log: stderr})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *out != "" {
		if err := writeJSON(*out, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 2
		}
	}
	for _, p := range rec.Problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	// The run's stamp and seed, then the result as the last line.
	head, _ := json.Marshal(struct {
		Workload string   `json:"workload"`
		Seed     uint64   `json:"seed"`
		Env      envStamp `json:"env"`
		Digests  digests  `json:"digests"`
		Layers   *layers  `json:"layers,omitempty"`
	}{rec.Workload, rec.Seed, rec.Env, rec.Digests, rec.Layers})
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", head, line)
	if !rec.Result.Correct {
		return 1
	}
	return 0
}

func writeJSON(name string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(name, append(b, '\n'), 0o644)
}
