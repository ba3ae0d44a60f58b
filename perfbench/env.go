package main

import (
	"runtime"
	"runtime/debug"
)

// envStamp records where a result was measured. A result without it
// cannot be compared with another: the host, the Go toolchain and the
// parallelism all move the numbers.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Revision is the vcs.revision the binary was built from, "unknown"
	// when it was built outside a git checkout.
	Revision string `json:"vcs_revision"`
	Modified bool   `json:"vcs_modified,omitempty"`
	// Oversubscribed flags GOMAXPROCS > NumCPU: goroutines then share
	// cores, so a "multi-core" figure measures time slicing, not scaling.
	Oversubscribed bool `json:"gomaxprocs_exceeds_num_cpu,omitempty"`
}

func stamp() envStamp {
	e := envStamp{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Revision:   "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Revision = s.Value
			case "vcs.modified":
				e.Modified = s.Value == "true"
			}
		}
	}
	e.Oversubscribed = e.GOMAXPROCS > e.NumCPU
	return e
}
