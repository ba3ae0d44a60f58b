// Package bench holds what the per-layer benchmark mains under
// internal/*/benchjson share: the environment stamp every BENCH_*.json
// carries, fixed-work best-of-N timing, the allocator size-class model
// the footprint baselines use, and the JSON writer.
package bench

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// Env records the host a report was produced on. Reports embed it, so
// its fields sit at the top level of the JSON object: a number is only
// comparable to another taken with the same toolchain and core count.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// Stamp returns the environment of the running process.
func Stamp() Env {
	return Env{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// Best times reps repetitions of a fixed unit of work and returns the
// fastest in seconds. Each repetition first calls setup untimed (when
// non-nil), then times run. Fixed work keeps runs comparable across
// commits and hosts (a b.N-scaled loop measures different work on
// different machines); keeping the fastest suppresses scheduler noise.
func Best(reps int, setup, run func()) float64 {
	best := 0.0
	for i := 0; i < reps; i++ {
		if setup != nil {
			setup()
		}
		start := time.Now()
		run()
		if s := time.Since(start).Seconds(); i == 0 || s < best {
			best = s
		}
	}
	return best
}

// sizeClasses are the Go allocator's small-object size classes up to
// 1 KiB, the range path node arrays and adjacency backings land in.
var sizeClasses = []int64{8, 16, 24, 32, 48, 64, 80, 96, 112, 128,
	144, 160, 176, 192, 208, 224, 240, 256, 288, 320, 352, 384,
	416, 448, 480, 512, 576, 640, 704, 768, 896, 1024}

// RoundSizeClass rounds a small-object allocation of n bytes up the
// way the Go allocator does: to the next size class up to 1 KiB, to
// 8-byte alignment above. Footprints modeled with it are deterministic,
// so committed baselines do not wobble with GC timing.
func RoundSizeClass(n int64) int64 {
	for _, c := range sizeClasses {
		if n <= c {
			return c
		}
	}
	return (n + 7) &^ 7
}

// WriteJSON writes v as indented JSON ending in a newline to path, or
// to standard output when path is "-".
func WriteJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
